"""Polar decomposition of the wavefunction and the full energy ledger.

Splits psi = R e^{iS} into density and phase-derivative fields without ever
unwrapping S, assembles per-particle and density forms of each energy term,
and classifies superoscillation in both the (Q, K_a) and (Q_r, K_c)
pictures.  Natural units hbar = m = 1 throughout.
"""

import zipfile
from dataclasses import dataclass

import numpy as np

from .grids import (
    ComplexField,
    ScalarField,
    _grid_weights,
    coordinate_columns,
    laplacian,
    partials,
    write_columns,
)
from .spectral import sample_potential
from .states import Superposition, band_limit, evaluate, time_derivative

__all__ = [
    "EPS_NODE",
    "EQ_TOL",
    "MadelungFields",
    "EnergyDecomposition",
    "SuperoscillationMask",
    "polar_fields",
    "energy_decomposition",
    "classify_superoscillation",
    "hj_residual",
    "continuity_residual",
    "decompose",
    "mask_area",
    "decomposition_to_csv",
    "masks_to_csv",
    "write_frame_table",
    "read_frame_table",
]

# relative density floor below which phase derivatives are unreliable
EPS_NODE = 1e-10
# equality band for classification: boundary points are not superoscillatory
EQ_TOL = 1e-12
# outermost grid points dropped from valid sets (hard-wall stencil pollution)
EDGE_PAD = 2


def _interior_mask(shape) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    mask[(slice(EDGE_PAD, -EDGE_PAD),) * len(shape)] = True
    return mask


@dataclass
class MadelungFields:
    """Hydrodynamic form of a wavefunction snapshot.

    grad_psi and grad_S are tuples of one (1D) or two (2D) component
    fields; v_a equals grad_S in natural units.  node_mask marks points
    where the density is large enough for phase derivatives to be
    meaningful and which sit away from the domain edges.
    """

    psi: ComplexField
    dpsidt: ComplexField
    rho: ScalarField
    R: ScalarField
    grad_psi: tuple
    grad_S: tuple
    dSdt: ScalarField
    node_mask: np.ndarray

    @property
    def grid(self):
        return self.psi.grid

    @property
    def v_a(self) -> tuple:
        return self.grad_S


@dataclass
class EnergyDecomposition:
    """Per-particle energy fields, their density forms, and the band limit.

    Densities equal rho times the per-particle field; where an undivided
    form exists (q = -R lap(R)/2, k_s = |grad R|^2/2, q_r = -lap(rho)/4,
    e_p from the raw phase-derivative numerator, u = rho U) the density is
    built from it directly and keeps the full-grid mask, so integral
    identities are free of node-mask bias.  k_a and k_c genuinely diverge
    at nodes and stay node-masked.  Per-particle forms are the divided
    fields, masked wherever division by rho is unreliable.
    """

    Q: ScalarField
    K_a: ScalarField
    K_s: ScalarField
    Q_r: ScalarField
    K_c: ScalarField
    E_p: ScalarField
    K_cl: ScalarField
    U: ScalarField
    q: ScalarField
    k_a: ScalarField
    k_s: ScalarField
    q_r: ScalarField
    k_c: ScalarField
    e_p: ScalarField
    u: ScalarField
    rho: ScalarField
    E_plus: float

    @property
    def grid(self):
        return self.Q.grid

    @property
    def valid(self) -> np.ndarray:
        return self.Q.mask


@dataclass
class SuperoscillationMask:
    """Six boolean classifications on the grid.

    soft/hard in the (Q, K_a) picture, soft/hard in the (q_r, k_c) density
    picture, and the two classically forbidden indicators.  Points outside
    valid are never flagged.
    """

    grid: object
    soft_qka: np.ndarray
    hard_qka: np.ndarray
    soft_qrkc: np.ndarray
    hard_qrkc: np.ndarray
    forbidden_global: np.ndarray
    forbidden_local: np.ndarray
    valid: np.ndarray


def polar_fields(psi: ComplexField, dpsidt: ComplexField) -> MadelungFields:
    """Decompose a snapshot into density and phase-derivative fields.

    grad_S = Im(conj(psi) grad psi)/rho and dS/dt = Im(conj(psi) dpsi/dt)/rho
    are evaluated only where rho >= EPS_NODE * max(rho) and away from the
    outermost EDGE_PAD points; elsewhere they are zeroed and masked.
    """
    if psi.grid is not dpsidt.grid and psi.grid != dpsidt.grid:
        raise ValueError("psi and dpsidt must share a grid")
    rho_vals = np.abs(psi.values) ** 2
    peak = rho_vals.max()
    if peak == 0.0:
        raise ValueError("wavefunction is identically zero")
    node_mask = (rho_vals >= EPS_NODE * peak) & _interior_mask(rho_vals.shape)

    grid = psi.grid
    full = np.ones_like(node_mask)
    rho = ScalarField(grid, rho_vals, full.copy())
    R = ScalarField(grid, np.sqrt(rho_vals), full.copy())

    dpsi = partials(ComplexField(grid, psi.values, full.copy()))

    grad_S = []
    for comp in dpsi:
        num = np.imag(np.conj(psi.values) * comp.values)
        vals = np.zeros_like(rho_vals)
        np.divide(num, rho_vals, out=vals, where=node_mask)
        grad_S.append(ScalarField(grid, vals, node_mask.copy()))

    num_t = np.imag(np.conj(psi.values) * dpsidt.values)
    dSdt_vals = np.zeros_like(rho_vals)
    np.divide(num_t, rho_vals, out=dSdt_vals, where=node_mask)
    dSdt = ScalarField(grid, dSdt_vals, node_mask.copy())

    return MadelungFields(psi, dpsidt, rho, R, dpsi, tuple(grad_S), dSdt, node_mask)


def _divided(grid, num: np.ndarray, den: np.ndarray, mask: np.ndarray) -> ScalarField:
    vals = np.zeros_like(num)
    np.divide(num, den, out=vals, where=mask)
    return ScalarField(grid, vals, mask.copy())


def energy_decomposition(f: MadelungFields, U: ScalarField, E_plus: float) -> EnergyDecomposition:
    """Assemble the complete energy ledger from hydrodynamic fields.

    Q = -lap(R)/(2R), K_a = |grad S|^2/2, K_s = |grad R|^2/(2R^2),
    Q_r = -lap(rho)/(4 rho), K_c = K_a + K_s, E_p = -dS/dt, K_cl = E_p - U.
    Densities are rho times the per-particle forms; the q_r density comes
    straight from the Laplacian of rho with no division.
    """
    grid = f.grid
    mask = f.node_mask
    rho_vals = f.rho.values

    # undivided densities first: exact forms valid on the whole grid
    lap_R = laplacian(f.R)
    q_vals = -0.5 * f.R.values * lap_R.values
    q = ScalarField(grid, q_vals, lap_R.mask.copy())

    lap_rho = laplacian(f.rho)
    q_r = ScalarField(grid, -0.25 * lap_rho.values, lap_rho.mask.copy())

    ep_vals = -np.imag(np.conj(f.psi.values) * f.dpsidt.values)
    e_p_density = ScalarField(grid, ep_vals, np.ones_like(mask))

    u = ScalarField(grid, rho_vals * U.values, U.mask.copy())

    # kinetic densities: 0.5|grad psi|^2 is smooth across density zeros
    # (|grad R|^2 is not: R kinks at the nodes of real states), so k_c is
    # built undivided from it; the advective part subtracts off to give
    # k_s.  Cauchy-Schwarz makes that difference nonnegative pointwise
    # even in the discrete fields, up to rounding, which is clipped.
    full = np.ones_like(mask)
    kc_vals = np.zeros_like(rho_vals)
    for comp in f.grad_psi:
        kc_vals = kc_vals + 0.5 * np.abs(comp.values) ** 2

    ka_vals = np.zeros_like(rho_vals)
    for comp in f.grad_S:
        ka_vals = ka_vals + 0.5 * comp.values**2
    ka_density = np.where(mask, rho_vals * ka_vals, 0.0)
    k_a = ScalarField(grid, ka_density, mask.copy())

    ks_density = np.maximum(kc_vals - ka_density, 0.0)
    k_s = ScalarField(grid, ks_density, full.copy())
    k_c = ScalarField(grid, ka_density + ks_density, full.copy())

    # per-particle forms: divide by rho, masked near nodes and edges
    Q = _divided(grid, q_vals, rho_vals, mask & q.mask)
    K_s = _divided(grid, ks_density, rho_vals, mask)
    Q_r = _divided(grid, q_r.values, rho_vals, mask & q_r.mask)
    K_a = ScalarField(grid, np.where(mask, ka_vals, 0.0), mask.copy())

    kc_mask = K_a.mask & K_s.mask
    K_c = ScalarField(grid, np.where(kc_mask, K_a.values + K_s.values, 0.0), kc_mask)

    E_p = ScalarField(grid, -f.dSdt.values, f.dSdt.mask.copy())
    kcl_mask = E_p.mask & U.mask
    K_cl = ScalarField(grid, np.where(kcl_mask, E_p.values - U.values, 0.0), kcl_mask)

    return EnergyDecomposition(
        Q=Q, K_a=K_a, K_s=K_s, Q_r=Q_r, K_c=K_c, E_p=E_p, K_cl=K_cl,
        U=ScalarField(grid, U.values.copy(), U.mask.copy()),
        q=q, k_a=k_a, k_s=k_s, q_r=q_r, k_c=k_c,
        e_p=e_p_density, u=u,
        rho=ScalarField(grid, rho_vals.copy(), f.rho.mask.copy()),
        E_plus=float(E_plus),
    )


def classify_superoscillation(d: EnergyDecomposition) -> SuperoscillationMask:
    """Flag the six superoscillation classes.

    Strict inequalities with an EQ_TOL band: points within EQ_TOL of a
    class boundary are left unflagged.  Soft/hard in the density picture
    use the q_r and k_c density fields directly.
    """
    valid = d.Q.mask & d.K_a.mask & d.K_s.mask & d.E_p.mask
    head = d.E_plus - d.U.values

    soft_qka = valid & (d.Q.values < -EQ_TOL)
    hard_qka = valid & (d.K_a.values - head > EQ_TOL)
    soft_qrkc = valid & (d.q_r.values < -EQ_TOL)
    hard_qrkc = valid & (d.k_c.values - (d.rho.values * d.E_plus - d.u.values) > EQ_TOL)
    forbidden_global = valid & (head < -EQ_TOL)
    forbidden_local = valid & (d.K_cl.values < -EQ_TOL)

    return SuperoscillationMask(
        grid=d.grid, soft_qka=soft_qka, hard_qka=hard_qka,
        soft_qrkc=soft_qrkc, hard_qrkc=hard_qrkc,
        forbidden_global=forbidden_global, forbidden_local=forbidden_local,
        valid=valid,
    )


def hj_residual(d: EnergyDecomposition) -> ScalarField:
    """Hamilton-Jacobi balance K_a + Q + U - E_p; zero in the continuum."""
    mask = d.K_a.mask & d.Q.mask & d.U.mask & d.E_p.mask
    vals = np.where(mask, d.K_a.values + d.Q.values + d.U.values - d.E_p.values, 0.0)
    return ScalarField(d.grid, vals, mask)


def continuity_residual(s: Superposition, t: float, dt: float) -> ScalarField:
    """Mass balance d(rho)/dt + div(rho v_a) at time t.

    The time derivative is a centered difference over dt; the divergence
    uses the grid stencils, so the residual carries O(dt^2) + O(h^2).
    """
    psi = evaluate(s, t)
    f = polar_fields(psi, time_derivative(s, t))
    rho_p = np.abs(evaluate(s, t + dt).values) ** 2
    rho_m = np.abs(evaluate(s, t - dt).values) ** 2
    drho = (rho_p - rho_m) / (2.0 * dt)

    # add d(rho v_a)/dx_a along each axis
    total, mask = drho, True
    for axis, v in enumerate(f.v_a):
        d = partials(ScalarField(f.grid, f.rho.values * v.values, v.mask.copy()))[axis]
        total, mask = total + d.values, mask & d.mask
    return ScalarField(f.grid, np.where(mask, total, 0.0), mask)


def decompose(s: Superposition, t: float) -> EnergyDecomposition:
    """Evaluate a superposition at time t and build its energy ledger, with
    U the basis potential sampled on the basis grid (zero for bases without
    one) and E_plus the state's band limit; energy_decomposition takes any
    other U and E_plus."""
    pot = s.basis.potential
    if pot is None:
        U = ScalarField(s.grid, np.zeros(s.grid.shape))
    else:
        U = sample_potential(pot, s.grid)
    f = polar_fields(evaluate(s, t), time_derivative(s, t))
    return energy_decomposition(f, U, band_limit(s))


def mask_area(grid, flags: np.ndarray) -> float:
    """Total length (1D) or area (2D) of the flagged cells."""
    size = float(flags.sum())
    for g in grid.axes:
        size *= g.h
    return size


def ledger_integrals(d: EnergyDecomposition) -> dict:
    """Integrals of the density-form ledger entries over the grid.

    Uses uniform (trapezoid) weights: the density forms are built from the
    same difference operators as the Hamiltonian, and those operators
    telescope exactly under uniform weights, so identities like
    int q_r = 0 hold to rounding even when the potential has steps.
    Higher-order panel rules weight neighbouring points unequally, lose
    the telescoping, and stall near O(h) on densities with curvature
    jumps.
    """
    w = _grid_weights(d.grid)
    out = {}
    for name in ("q", "k_a", "k_s", "q_r", "k_c", "e_p", "u"):
        out[name] = float(np.sum(w * getattr(d, name).values))
    return out


_DECOMP_COLS = ("Q", "K_a", "K_s", "Q_r", "K_c", "E_p", "K_cl", "U",
                "q", "k_a", "k_s", "q_r", "k_c", "e_p", "u", "rho")


def decomposition_to_csv(d: EnergyDecomposition, path: str):
    """One row per grid point: coordinates, every ledger field, valid flag."""
    names, coords = coordinate_columns(d.grid)
    fields = tuple(getattr(d, c).values for c in _DECOMP_COLS)
    write_columns(path, names + _DECOMP_COLS + ("valid",), coords + fields + (d.valid,))


_MASK_COLS = ("soft_qka", "hard_qka", "soft_qrkc", "hard_qrkc",
              "forbidden_global", "forbidden_local")


def masks_to_csv(m: SuperoscillationMask, path: str):
    """One row per grid point: coordinates, six 0/1 flags, valid flag."""
    names, coords = coordinate_columns(m.grid)
    flags = tuple(getattr(m, c) for c in _MASK_COLS)
    write_columns(path, names + _MASK_COLS + ("valid",), coords + flags + (m.valid,))


# fixed zip entry timestamp: the archive bytes depend only on the arrays
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)


def _put_array(zf: zipfile.ZipFile, name: str, array: np.ndarray):
    info = zipfile.ZipInfo(name + ".npy", date_time=_ZIP_DATE)
    with zf.open(info, "w", force_zip64=True) as fh:
        np.lib.format.write_array(fh, array, allow_pickle=False)


def write_frame_table(path, times, ledgers):
    """All frames of a run as one uncompressed .npz archive.

    ledgers holds one (EnergyDecomposition, SuperoscillationMask) pair per
    entry of times.  Keys: t; the grid axes x (and y in 2D) as 1D arrays;
    one float64 array of shape (frames, *grid shape) per ledger column;
    one bool array of that shape per mask column and for valid.  Columns
    are stacked over frames one at a time, so memory holds one stacked
    column on top of the ledgers.
    """
    with zipfile.ZipFile(path, "w") as zf:
        _put_array(zf, "t", np.asarray(times, dtype=float))
        for name, axis in zip(("x", "y"), ledgers[0][0].grid.axes):
            _put_array(zf, name, axis.x)
        for c in _DECOMP_COLS:
            _put_array(zf, c, np.stack([getattr(d, c).values for d, _ in ledgers]))
        for c in _MASK_COLS + ("valid",):
            _put_array(zf, c, np.stack([getattr(m, c) for _, m in ledgers]))


def read_frame_table(path, keys=None) -> dict:
    """{key: array} of an archive written by write_frame_table: every key,
    or only those named in keys."""
    with np.load(path, allow_pickle=False) as z:
        return {k: z[k] for k in (z.files if keys is None else keys)}
