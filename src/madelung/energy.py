"""The energy ledger of psi = R e^{iS} and its superoscillation classes.

One array pass computes the whole ledger of every frame of a run from the
stacked psi and dpsi/dt: density and phase derivatives without ever
unwrapping S, per-particle and density forms of each energy term, and the
soft/hard/forbidden classes in both the (Q, K_a) and (Q_r, K_c) pictures.
Natural units hbar = m = 1 throughout.
"""

import functools
import operator
import zipfile
from dataclasses import dataclass

import numpy as np

from .grids import (
    ScalarField,
    _along,
    _d1,
    _d2,
    _grid_weights,
    coordinate_columns,
    partials,
    write_columns,
)
from .spectral import sample_potential
from .states import Superposition, band_limit, evaluate, time_derivative

# relative density floor below which phase derivatives are unreliable
EPS_NODE = 1e-10
# equality band for classification: boundary points are not superoscillatory
EQ_TOL = 1e-12
# outermost grid points dropped from valid sets (hard-wall stencil pollution)
EDGE_PAD = 2

# the ledger columns, per-particle forms first, then the density forms
_DECOMP_COLS = ("Q", "K_a", "K_s", "Q_r", "K_c", "E_p", "K_cl", "U",
                "q", "k_a", "k_s", "q_r", "k_c", "e_p", "u", "rho")
_MASK_COLS = ("soft_qka", "hard_qka", "soft_qrkc", "hard_qrkc",
              "forbidden_global", "forbidden_local")
# the float columns a frame archive stores, one (frames, *grid) array each;
# _derive rebuilds the others from them, U and valid
_STORED_COLS = ("rho", "q", "K_a", "k_s", "q_r", "e_p")
_DERIVED_COLS = tuple(c for c in _DECOMP_COLS if c not in _STORED_COLS + ("U",))


@dataclass
class EnergyDecomposition:
    """One frame of the ledger: each column an array on the grid, the band
    limit E_plus, and valid, the points where the per-particle forms are
    defined (away from nodes and the grid edges).  See ledger."""

    grid: object
    E_plus: float
    Q: np.ndarray
    K_a: np.ndarray
    K_s: np.ndarray
    Q_r: np.ndarray
    K_c: np.ndarray
    E_p: np.ndarray
    K_cl: np.ndarray
    U: np.ndarray
    q: np.ndarray
    k_a: np.ndarray
    k_s: np.ndarray
    q_r: np.ndarray
    k_c: np.ndarray
    e_p: np.ndarray
    u: np.ndarray
    rho: np.ndarray
    valid: np.ndarray


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


def _divided(num: np.ndarray, rho: np.ndarray, mask: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num)
    np.divide(num, rho, out=out, where=mask)
    return out


def _polar(grid, psi: np.ndarray) -> tuple:
    """rho, the node mask, the partials of psi along each grid axis and
    grad S = Im(conj(psi) grad psi)/rho of a (frames, *grid) stack.

    The node mask keeps the points where rho >= EPS_NODE times the frame's
    peak and which sit EDGE_PAD points or more inside every grid edge;
    grad S is zero elsewhere.
    """
    rho = np.abs(psi) ** 2
    peak = rho.max(axis=tuple(range(1, rho.ndim)), keepdims=True)
    if (peak == 0.0).any():
        raise ValueError("wavefunction is identically zero")
    interior = np.zeros(grid.shape, dtype=bool)
    interior[(slice(EDGE_PAD, -EDGE_PAD),) * grid.ndim] = True
    mask = (rho >= EPS_NODE * peak) & interior
    dpsi = [_along(psi, 1 + a, _d1, g.h) for a, g in enumerate(grid.axes)]
    grad_S = [_divided(np.imag(np.conj(psi) * c), rho, mask) for c in dpsi]
    return rho, mask, dpsi, grad_S


def ledger(grid, psi, dpsidt, U, E_plus) -> dict:
    """The energy ledger and superoscillation classes of every frame.

    psi and dpsidt are complex (frames, *grid.shape) stacks, U the
    potential on the grid and E_plus one band limit per frame.  Returns
    {column: (frames, *grid.shape) array} for the ledger columns

      Q = -lap(R)/(2R), K_a = |grad S|^2/2, K_s = |grad R|^2/(2R^2),
      Q_r = -lap(rho)/(4 rho), K_c = K_a + K_s, E_p = -dS/dt,
      K_cl = E_p - U, U,

    their density forms q, k_a, k_s, q_r, k_c, e_p, u and rho, the six
    classes of classify_superoscillation and valid, and E_plus as a
    (frames,) array.  Where an undivided form exists (q = -R lap(R)/2,
    k_s, k_c, q_r = -lap(rho)/4, e_p from the raw phase-derivative
    numerator, u = rho U) the density is built from it on the whole grid,
    so integral identities are free of node-mask bias.  The per-particle
    forms and k_a, which diverges at nodes, are zero outside valid.
    """
    psi = np.asarray(psi, dtype=complex)
    dpsidt = np.asarray(dpsidt, dtype=complex)
    U = np.asarray(U, dtype=float)
    E_plus = np.reshape(np.asarray(E_plus, dtype=float), (-1,) + (1,) * grid.ndim)
    if psi.shape != dpsidt.shape or psi.shape[1:] != grid.shape or U.shape != grid.shape:
        raise ValueError(f"psi {psi.shape}, dpsidt {dpsidt.shape} and U {U.shape} "
                         f"do not fit grid {grid.shape}")
    if E_plus.shape[0] != psi.shape[0]:
        raise ValueError(f"{E_plus.shape[0]} band limits for {psi.shape[0]} frames")
    for name, v in (("psi", psi), ("dpsidt", dpsidt), ("U", U), ("E_plus", E_plus)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} has a non-finite value")

    rho, mask, dpsi, grad_S = _polar(grid, psi)
    R = np.sqrt(rho)
    c = {"E_plus": E_plus.reshape(-1), "rho": rho, "valid": mask}
    c["q"] = -0.5 * R * _laplacian(grid, R)
    c["q_r"] = -0.25 * _laplacian(grid, rho)
    c["e_p"] = -np.imag(np.conj(psi) * dpsidt)

    # kinetic densities: 0.5|grad psi|^2 is smooth across density zeros
    # (|grad R|^2 is not: R kinks at the nodes of real states), so k_c is
    # built undivided from it; the advective part k_a = rho K_a (zero
    # outside valid, as K_a is) subtracts off to give k_s.  Cauchy-Schwarz
    # makes that difference nonnegative pointwise even in the discrete
    # fields, up to rounding, which is clipped.
    kc = functools.reduce(operator.add, (0.5 * np.abs(d) ** 2 for d in dpsi))
    ka = functools.reduce(operator.add, (0.5 * g**2 for g in grad_S))
    c["K_a"] = np.where(mask, ka, 0.0)
    c["k_s"] = np.maximum(kc - rho * c["K_a"], 0.0)
    c.update(_derive(c, U))
    c.update(_classes(c, E_plus))
    return c


def _derive(c: dict, U: np.ndarray) -> dict:
    """The ledger columns that follow exactly from the independent ones:
    c holds rho, valid, q, K_a, k_s, q_r and e_p as (frames, *grid) arrays,
    U is the potential on the grid or over the frames.  ledger and
    read_frame_table both build these columns here, so an archive reads
    back the ledger's own bits."""
    rho, valid = c["rho"], c["valid"]
    d = {"U": np.broadcast_to(U, rho.shape), "u": rho * U}
    d["E_p"] = -_divided(-c["e_p"], rho, valid)
    d["k_a"] = np.where(valid, rho * c["K_a"], 0.0)
    d["k_c"] = d["k_a"] + c["k_s"]
    d["Q"] = _divided(c["q"], rho, valid)
    d["K_s"] = _divided(c["k_s"], rho, valid)
    d["Q_r"] = _divided(c["q_r"], rho, valid)
    d["K_c"] = np.where(valid, c["K_a"] + d["K_s"], 0.0)
    d["K_cl"] = np.where(valid, d["E_p"] - U, 0.0)
    return d


def _laplacian(grid, v: np.ndarray) -> np.ndarray:
    # sum of the second derivatives along each grid axis of a frame stack
    return functools.reduce(operator.add, (_along(v, 1 + a, _d2, g.h)
                                           for a, g in enumerate(grid.axes)))


def _classes(c, E_plus) -> dict:
    """The six superoscillation classes of ledger columns c: strict
    inequalities with an EQ_TOL band, so points within EQ_TOL of a class
    boundary are left unflagged.  The density picture uses the q_r and k_c
    density fields directly."""
    valid = c["valid"]
    head = E_plus - c["U"]
    return {
        "soft_qka": valid & (c["Q"] < -EQ_TOL),
        "hard_qka": valid & (c["K_a"] - head > EQ_TOL),
        "soft_qrkc": valid & (c["q_r"] < -EQ_TOL),
        "hard_qrkc": valid & (c["k_c"] - (c["rho"] * E_plus - c["u"]) > EQ_TOL),
        "forbidden_global": valid & (head < -EQ_TOL),
        "forbidden_local": valid & (c["K_cl"] < -EQ_TOL),
    }


def _potential(s: Superposition) -> np.ndarray:
    # the basis potential on the basis grid, zero for bases without one
    pot = s.basis.potential
    return np.zeros(s.grid.shape) if pot is None else sample_potential(pot, s.grid).values


def frame_ledger(states, times) -> dict:
    """ledger of states[i] at times[i], states on one basis: one evaluate
    and one time_derivative per frame, U the basis potential sampled on the
    basis grid and E_plus each state's band limit."""
    frames = list(zip(states, times, strict=True))
    psi = _stack([evaluate(s, float(t)).values for s, t in frames])
    dpsidt = _stack([time_derivative(s, float(t)).values for s, t in frames])
    return ledger(states[0].grid, psi, dpsidt, _potential(states[0]),
                  [band_limit(s) for s in states])


def _stack(frames: list) -> np.ndarray:
    # one frame is a view, not a copy
    return frames[0][None] if len(frames) == 1 else np.stack(frames)


def frame_decomposition(grid, c: dict, i: int) -> EnergyDecomposition:
    """Frame i of the ledger columns c (see ledger) as an
    EnergyDecomposition, its fields views of the columns."""
    return EnergyDecomposition(grid, float(c["E_plus"][i]),
                               **{k: c[k][i] for k in _DECOMP_COLS + ("valid",)})


def decompose(s: Superposition, t: float) -> EnergyDecomposition:
    """The ledger of a superposition at time t: frame_ledger on one frame,
    so U is the basis potential (zero for bases without one) and E_plus the
    state's band limit; ledger takes any other U and E_plus."""
    return frame_decomposition(s.grid, frame_ledger([s], [t]), 0)


def classify_superoscillation(d: EnergyDecomposition) -> SuperoscillationMask:
    """The six superoscillation classes of one ledger frame, as ledger
    computes them."""
    return SuperoscillationMask(d.grid, valid=d.valid, **_classes(vars(d), d.E_plus))


def hj_residual(d: EnergyDecomposition) -> ScalarField:
    """Hamilton-Jacobi balance K_a + Q + U - E_p; zero in the continuum."""
    vals = np.where(d.valid, d.K_a + d.Q + d.U - d.E_p, 0.0)
    return ScalarField(d.grid, vals, d.valid)


def continuity_residual(s: Superposition, t: float, dt: float) -> ScalarField:
    """Mass balance d(rho)/dt + div(rho v_a) at time t.

    The time derivative is a centered difference over dt; the divergence
    uses the grid stencils, so the residual carries O(dt^2) + O(h^2).
    """
    rho, mask, _, v_a = _polar(s.grid, evaluate(s, t).values[None])
    rho_p = np.abs(evaluate(s, t + dt).values) ** 2
    rho_m = np.abs(evaluate(s, t - dt).values) ** 2
    drho = (rho_p - rho_m) / (2.0 * dt)

    # add d(rho v_a)/dx_a along each axis
    total, ok = drho, True
    for axis, v in enumerate(v_a):
        d = partials(ScalarField(s.grid, rho[0] * v[0], mask[0]))[axis]
        total, ok = total + d.values, ok & d.mask
    return ScalarField(s.grid, np.where(ok, total, 0.0), ok)


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
    telescope under uniform weights up to the boundary term of their
    one-sided edge rows, so identities like int q_r = 0 hold to O(h^3),
    even when the potential has steps.  On the two-mode hard well int q_r
    reads -6.9e-8, -8.6e-9, -1.1e-9 and -1.4e-10 at 1001, 2001, 4001 and
    8001 points, the same at every time.
    Higher-order panel rules weight neighbouring points unequally, lose
    the telescoping, and stall near O(h) on densities with curvature
    jumps.
    """
    w = _grid_weights(d.grid)
    out = {}
    for name in ("q", "k_a", "k_s", "q_r", "k_c", "e_p", "u"):
        out[name] = float(np.sum(w * getattr(d, name)))
    return out


def decomposition_to_csv(d: EnergyDecomposition, path: str):
    """One row per grid point: coordinates, every ledger field, valid flag."""
    names, coords = coordinate_columns(d.grid)
    fields = tuple(getattr(d, c) for c in _DECOMP_COLS)
    write_columns(path, names + _DECOMP_COLS + ("valid",), coords + fields + (d.valid,))


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


def write_frame_table(path, times, grid, table):
    """All frames of a run as one uncompressed .npz archive of the
    independent ledger.

    table is a ledger result over the frames at times.  Keys: t; the grid
    axes x (and y in 2D) as 1D arrays; E_plus, the band limit of each frame;
    U once, on the grid; one float64 array of shape (frames, *grid shape)
    for each of rho, q, K_a, k_s, q_r and e_p; one bool array of that shape
    per mask column and for valid.  read_frame_table rebuilds the other
    ledger columns from these.
    """
    with zipfile.ZipFile(path, "w") as zf:
        _put_array(zf, "t", np.asarray(times, dtype=float))
        for name, axis in zip(("x", "y"), grid.axes):
            _put_array(zf, name, axis.x)
        _put_array(zf, "E_plus", table["E_plus"])
        _put_array(zf, "U", table["U"][0])
        for c in _STORED_COLS + _MASK_COLS + ("valid",):
            _put_array(zf, c, table[c])


def read_frame_table(path, keys=None) -> dict:
    """{key: array} of an archive written by write_frame_table: every key,
    or only those named in keys.

    Besides the stored keys, the ledger columns u, E_p, k_a, k_c, Q, K_s,
    Q_r, K_c and K_cl are rebuilt with ledger's own code, bit for bit, and
    only when one of them is asked for.  U comes back over the frames, as a
    read-only (frames, *grid shape) view.  An archive without E_plus (the
    layout that stored every ledger column) and a key the archive cannot
    supply are refused with a ValueError.
    """
    with np.load(path, allow_pickle=False) as z:
        if "E_plus" not in z.files:
            raise ValueError(f"{path} is a frame archive of the old layout, without "
                             "E_plus; re-run the scenario to write it again")
        known = z.files + list(_DERIVED_COLS)
        keys = known if keys is None else list(keys)
        unknown = [k for k in keys if k not in known]
        if unknown:
            raise ValueError(f"{path} has no key {', '.join(unknown)}; "
                             f"valid keys: {', '.join(known)}")
        derive = any(k in _DERIVED_COLS for k in keys)
        load = set(keys).union(_STORED_COLS, ("valid", "U")) if derive else set(keys)
        table = {k: z[k] for k in z.files if k in load}
        if "U" in table:
            table["U"] = np.broadcast_to(table["U"], z["t"].shape + table["U"].shape)
    if derive:
        table.update(_derive(table, table["U"]))
    return {k: table[k] for k in keys}
