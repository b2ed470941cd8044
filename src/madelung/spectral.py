"""Potentials and eigenproblem solvers.

Analytic eigenbases for the hard-wall well and the harmonic oscillator,
a finite-difference solver (symmetric tridiagonal, bisection + inverse
iteration with an extended-precision polish) for everything else, and an
on-disk cache so repeated solves are free: one directory per basis,
published by rename and validated when read.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .grids import Grid1D, Grid2D, ScalarField, _grid_weights, trapezoid_weights

__all__ = [
    "InfiniteWell",
    "WellWithBarrier",
    "Harmonic",
    "QuarticDoubleWell",
    "Tabulated",
    "SymTridiag",
    "EigenBasis",
    "sample_potential",
    "build_hamiltonian",
    "solve_eigen",
    "analytic_infinite_well",
    "analytic_harmonic",
    "eigenbasis",
    "product_basis_2d",
    "save_basis",
    "load_basis",
]

_SIGN_TOL = 1e-8  # relative threshold for the leading-lobe sign convention
# leads every cache key: bump it when the entry format or a solver's output
# changes, so entries written before are never read
_CACHE_VERSION = "npy1|fd_tridiag+polish2"
_STATES_FILE = "states.npy"


@dataclass(frozen=True)
class InfiniteWell:
    """Hard walls at +-half_width, U = 0 inside (walls are Dirichlet ends)."""

    half_width: float


@dataclass(frozen=True)
class WellWithBarrier:
    """Hard-wall well with a rectangular barrier centered at x = 0."""

    half_width: float
    barrier_height: float
    barrier_width: float


@dataclass(frozen=True)
class Harmonic:
    omega: float


@dataclass(frozen=True)
class QuarticDoubleWell:
    """Fixed double well 240 x^4 - 120 x^2 + 15: minima 0 at +-1/2, hump 15 at 0."""


@dataclass(frozen=True)
class Tabulated:
    field: ScalarField

    def __hash__(self):
        return hash(self.field.values.tobytes())


def sample_potential(potential, grid: Grid1D) -> ScalarField:
    """Sample U(x) on the grid; barrier edges snap to grid points."""
    x = grid.x
    if isinstance(potential, InfiniteWell):
        u = np.zeros(grid.n)
    elif isinstance(potential, WellWithBarrier):
        u = np.zeros(grid.n)
        half = 0.5 * potential.barrier_width
        i_lo = int(round((-half - grid.x_min) / grid.h))
        i_hi = int(round((half - grid.x_min) / grid.h))
        u[i_lo : i_hi + 1] = potential.barrier_height
    elif isinstance(potential, Harmonic):
        u = 0.5 * potential.omega**2 * x**2
    elif isinstance(potential, QuarticDoubleWell):
        u = 240.0 * x**4 - 120.0 * x**2 + 15.0
    elif isinstance(potential, Tabulated):
        if potential.field.grid != grid:
            raise ValueError("tabulated potential grid does not match")
        u = potential.field.values.copy()
    else:
        raise TypeError(f"unknown potential {type(potential).__name__}")
    if not np.isfinite(u).all():
        raise ValueError("potential must be finite on the interior")
    return ScalarField(grid, u)


def snapped_barrier_width(potential: WellWithBarrier, grid: Grid1D) -> float:
    """Actual barrier width after snapping edges to grid points."""
    half = 0.5 * potential.barrier_width
    i_lo = int(round((-half - grid.x_min) / grid.h))
    i_hi = int(round((half - grid.x_min) / grid.h))
    return (i_hi - i_lo) * grid.h


@dataclass(frozen=True)
class SymTridiag:
    """Symmetric tridiagonal matrix: diagonal d, off-diagonal e (len-1)."""

    diagonal: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        if len(self.offdiag) != len(self.diagonal) - 1:
            raise ValueError("off-diagonal must be one shorter than diagonal")


def build_hamiltonian(potential, grid: Grid1D) -> SymTridiag:
    """H = -(1/2) d2/dx2 (3-point) + U, Dirichlet at both grid ends.

    Rows cover the n-2 interior points only; the boundary values are
    identically zero.
    """
    u = sample_potential(potential, grid).values
    h = grid.h
    d = 1.0 / h**2 + u[1:-1]
    e = np.full(grid.n - 3, -0.5 / h**2)
    return SymTridiag(d, e)


@dataclass
class EigenBasis:
    """Energies and orthonormal eigenfunctions over a grid."""

    grid: object
    energies: np.ndarray
    states: list
    potential: object
    meta: dict = dc_field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.energies)

    def states_matrix(self) -> np.ndarray:
        cached = self.__dict__.get("_matrix")
        if cached is None or len(cached) != len(self.states):
            cached = np.stack([s.values for s in self.states])
            self.__dict__["_matrix"] = cached
        return cached

    def validate(self, strict_ascending: bool = True):
        diffs = np.diff(self.energies)
        if strict_ascending and not (diffs > 0).all():
            raise ValueError("energies not strictly ascending")
        if not strict_ascending and not (diffs >= 0).all():
            raise ValueError("energies not ascending")
        # trapezoid weights: the discrete product the difference operator
        # is symmetric under, so FD eigenvectors are exactly orthogonal in
        # it; Simpson weights would report spurious 1e-5 overlaps for high
        # modes
        V = self.states_matrix()
        V = V.reshape(len(V), -1)
        gram = (V * _grid_weights(self.grid).ravel()) @ V.T
        if np.abs(np.diag(gram) - 1.0).max() > 1e-8:
            raise ValueError("states not normalized to 1e-8")
        off = gram - np.diag(np.diag(gram))
        if np.abs(off).max() > 1e-6:
            raise ValueError(f"states not orthogonal: max overlap {np.abs(off).max():.2e}")
        return self


def _fix_sign(v: np.ndarray) -> np.ndarray:
    # first lobe (scanning from x_min) is positive
    big = np.abs(v) > _SIGN_TOL * np.abs(v).max()
    lead = v[np.argmax(big)]
    return -v if lead < 0 else v


def _polish_pairs(d: np.ndarray, e: np.ndarray, vals: np.ndarray, vecs: np.ndarray):
    """One-step-per-sweep inverse iteration in extended precision.

    Float64 bisection/inverse-iteration residuals sit at the backward
    stability floor eps*|H|, which for h ~ 1e-4 exceeds the 1e-8 target;
    two longdouble sweeps push them to ~1e-11.
    """
    dl = d.astype(np.longdouble)
    el = e.astype(np.longdouble)
    n, k = vecs.shape
    lam = vals.astype(np.longdouble).copy()
    V = vecs.astype(np.longdouble).copy()
    tiny = np.longdouble(1e-300)
    for _ in range(2):
        # vectorized Thomas solve of (T - lam_j) w_j = v_j for all j
        c = np.empty((n - 1, k), np.longdouble)
        g = np.empty((n, k), np.longdouble)
        m = dl[0] - lam
        m = np.where(np.abs(m) < tiny, tiny, m)
        c[0] = el[0] / m
        g[0] = V[0] / m
        for i in range(1, n):
            m = dl[i] - lam - el[i - 1] * c[i - 1]
            m = np.where(np.abs(m) < tiny, tiny, m)
            if i < n - 1:
                c[i] = el[i] / m
            g[i] = (V[i] - el[i - 1] * g[i - 1]) / m
        W = np.empty_like(g)
        W[-1] = g[-1]
        for i in range(n - 2, -1, -1):
            W[i] = g[i] - c[i] * W[i + 1]
        W /= np.sqrt((W * W).sum(axis=0))
        HW = dl[:, None] * W
        HW[:-1] += el[:, None] * W[1:]
        HW[1:] += el[:, None] * W[:-1]
        lam = (W * HW).sum(axis=0)
        V = W
    # independent shifts cross-talk inside near-degenerate clusters
    # (tall-barrier doublets), so re-orthogonalize within each cluster
    scale = np.abs(dl).max() + 2.0 * np.abs(el).max()
    changed = False
    j = 0
    while j < k:
        end = j + 1
        while end < k and lam[end] - lam[end - 1] < 1e-8 * scale:
            end += 1
        for a in range(j + 1, end):
            for b in range(j, a):
                V[:, a] = V[:, a] - (V[:, b] * V[:, a]).sum() * V[:, b]
            V[:, a] /= np.sqrt((V[:, a] ** 2).sum())
            changed = True
        j = end
    if changed:
        HW = dl[:, None] * V
        HW[:-1] += el[:, None] * V[1:]
        HW[1:] += el[:, None] * V[:-1]
        lam = (V * HW).sum(axis=0)
    return lam.astype(float), V.astype(float), HW.astype(float)


def solve_eigen(H: SymTridiag, k: int, grid: Grid1D, potential=None) -> EigenBasis:
    """Lowest k eigenpairs of the discrete Hamiltonian.

    LAPACK bisection + inverse iteration on the symmetric tridiagonal
    matrix, then an extended-precision polish so every returned pair
    satisfies |H psi - E psi|_inf <= 1e-8 |psi|_inf.
    """
    dim = len(H.diagonal)
    if k >= dim:
        raise ValueError(f"k={k} must be below interior dimension {dim}")
    if k < 1:
        raise ValueError("k must be positive")
    try:
        vals, vecs = eigh_tridiagonal(
            H.diagonal, H.offdiag, select="i", select_range=(0, k - 1)
        )
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise RuntimeError(f"eigensolve failed to converge: {exc}")
    lam, V, HV = _polish_pairs(H.diagonal, H.offdiag, vals, vecs)
    # residual acceptance per pair
    for j in range(k):
        r = np.abs(HV[:, j] - lam[j] * V[:, j]).max()
        if r > 1e-8 * np.abs(V[:, j]).max():
            raise RuntimeError(f"eigenpair {j} residual {r:.2e} exceeds tolerance")
    order = np.argsort(lam)
    lam, V = lam[order], V[:, order]
    states = []
    wq = trapezoid_weights(grid.n, grid.h)
    for j in range(k):
        full = np.zeros(grid.n)
        full[1:-1] = V[:, j]
        nrm = np.sum(wq * full**2)
        full = _fix_sign(full / math.sqrt(nrm))
        states.append(ScalarField(grid, full))
    basis = EigenBasis(grid, lam, states, potential, {"method": "fd_tridiag"})
    basis.validate()
    return basis


def analytic_infinite_well(n: int, half_width: float, grid: Grid1D):
    """Standing-wave eigenstate n >= 1 of the hard-wall well [-a, a]."""
    if n < 1:
        raise ValueError("mode index starts at 1")
    a = half_width
    if abs(grid.x_min + a) > 1e-12 or abs(grid.x_max - a) > 1e-12:
        raise ValueError("grid must span [-a, a] exactly")
    width = 2.0 * a
    energy = n**2 * math.pi**2 / (2.0 * width**2)
    vals = math.sqrt(2.0 / width) * np.sin(n * math.pi * (grid.x - grid.x_min) / width)
    return energy, ScalarField(grid, _fix_sign(vals))


def analytic_harmonic(n: int, omega: float, grid: Grid1D):
    """Hermite-function eigenstate n >= 0 of U = omega^2 x^2 / 2.

    Uses the stable normalized recurrence; requires the grid wide enough
    that the state has decayed below 1e-12 at both ends.
    """
    if n < 0:
        raise ValueError("mode index starts at 0")
    if omega <= 0:
        raise ValueError("omega must be positive")
    xi = math.sqrt(omega) * grid.x
    phi_prev = (omega / math.pi) ** 0.25 * np.exp(-0.5 * xi**2)
    if n == 0:
        psi = phi_prev
    else:
        phi = math.sqrt(2.0) * xi * phi_prev
        for m in range(1, n):
            phi, phi_prev = (
                math.sqrt(2.0 / (m + 1)) * xi * phi - math.sqrt(m / (m + 1.0)) * phi_prev,
                phi,
            )
        psi = phi
    edge = max(abs(psi[0]), abs(psi[-1]))
    if edge >= 1e-12:
        raise ValueError(
            f"grid too narrow for harmonic mode {n}: edge amplitude {edge:.2e}"
        )
    return (n + 0.5) * omega, ScalarField(grid, _fix_sign(psi))


def eigenbasis(potential, grid: Grid1D, k: int, cache_dir: str | None = None) -> EigenBasis:
    """Eigenbasis of the lowest k states: analytic when exact forms exist
    (hard-wall well, harmonic oscillator), finite-difference otherwise.

    cache_dir (or env MADELUNG_CACHE_DIR) enables the on-disk cache: one
    entry directory per key, holding basis.json and states.npy.  A miss
    writes the entry in a temporary directory and renames it into place,
    so a reader sees a complete entry or none; a hit is validated on load
    and a bad entry raises.
    """
    cache_dir = cache_dir or os.environ.get("MADELUNG_CACHE_DIR")
    entry = None
    if cache_dir and not isinstance(potential, Tabulated):
        entry = os.path.join(cache_dir, _cache_key(potential, grid, k))
        if os.path.isdir(entry):
            return load_basis(entry, potential)
    if isinstance(potential, InfiniteWell):
        pairs = [analytic_infinite_well(n, potential.half_width, grid) for n in range(1, k + 1)]
        basis = EigenBasis(
            grid,
            np.array([p[0] for p in pairs]),
            [p[1] for p in pairs],
            potential,
            {"method": "analytic_well"},
        )
    elif isinstance(potential, Harmonic):
        pairs = [analytic_harmonic(n, potential.omega, grid) for n in range(k)]
        basis = EigenBasis(
            grid,
            np.array([p[0] for p in pairs]),
            [p[1] for p in pairs],
            potential,
            {"method": "analytic_hermite"},
        )
    else:
        basis = solve_eigen(build_hamiltonian(potential, grid), k, grid, potential)
        if isinstance(potential, WellWithBarrier):
            basis.meta["snapped_barrier_width"] = snapped_barrier_width(potential, grid)
    if entry is not None:
        _publish(basis, entry)
    return basis


def _publish(basis: EigenBasis, entry: str):
    """Write the basis to a private temporary directory, then rename it to
    entry.  If another writer published entry first, its basis is the same
    one, so this copy is dropped."""
    cache_dir = os.path.dirname(entry)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".tmp-", dir=cache_dir)
    try:
        save_basis(basis, tmp)
        try:
            os.replace(tmp, entry)
        except OSError:
            if not os.path.isdir(entry):
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def product_basis_2d(pairs, grid2: Grid2D) -> EigenBasis:
    """Analytic eigenstates of the 2D hard-wall box as 1D products.

    pairs: list of (nx, ny) mode indices; box spans the grid extents.
    """
    gx, gy = grid2.grid_x, grid2.grid_y
    wx, wy = gx.x_max - gx.x_min, gy.x_max - gy.x_min
    energies, states = [], []
    for nx, ny in pairs:
        ux = math.sqrt(2.0 / wx) * np.sin(nx * math.pi * (gx.x - gx.x_min) / wx)
        uy = math.sqrt(2.0 / wy) * np.sin(ny * math.pi * (gy.x - gy.x_min) / wy)
        energies.append(0.5 * math.pi**2 * (nx**2 / wx**2 + ny**2 / wy**2))
        states.append(ScalarField(grid2, np.outer(ux, uy)))
    basis = EigenBasis(
        grid2,
        np.array(energies, dtype=float),
        states,
        None,
        {"method": "analytic_box2d", "pairs": [tuple(p) for p in pairs]},
    )
    basis.validate(strict_ascending=False)
    return basis


def _canon(potential) -> str:
    if isinstance(potential, InfiniteWell):
        return f"well:{potential.half_width!r}"
    if isinstance(potential, WellWithBarrier):
        return (
            f"barrier:{potential.half_width!r}:{potential.barrier_height!r}"
            f":{potential.barrier_width!r}"
        )
    if isinstance(potential, Harmonic):
        return f"harmonic:{potential.omega!r}"
    if isinstance(potential, QuarticDoubleWell):
        return "quartic"
    raise TypeError("potential not cacheable")


def _cache_key(potential, grid: Grid1D, k: int) -> str:
    tag = (f"{_CACHE_VERSION}|{_canon(potential)}"
           f"|{grid.x_min!r},{grid.x_max!r},{grid.n}|k={k}")
    return hashlib.sha256(tag.encode()).hexdigest()[:16]


def save_basis(basis: EigenBasis, path: str):
    """Persist a 1D basis as states.npy, the (k, n) state matrix, plus
    basis.json with the energies, grid, k and meta."""
    os.makedirs(path, exist_ok=True)
    np.save(os.path.join(path, _STATES_FILE), basis.states_matrix())
    g = basis.grid
    doc = {
        "energies": [float(e) for e in basis.energies],
        "grid": {"x_min": g.x_min, "x_max": g.x_max, "n": g.n},
        "k": basis.k,
        "meta": basis.meta,
        "states": _STATES_FILE,
    }
    with open(os.path.join(path, "basis.json"), "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_basis(path: str, potential=None) -> EigenBasis:
    """Read a basis written by save_basis and validate it.

    A missing or truncated file, a shape that disagrees with basis.json or
    a failed validate() raises ValueError naming path.
    """
    try:
        with open(os.path.join(path, "basis.json")) as fh:
            doc = json.load(fh)
        g = Grid1D(doc["grid"]["x_min"], doc["grid"]["x_max"], doc["grid"]["n"])
        V = np.load(os.path.join(path, doc["states"]), allow_pickle=False)
        energies = np.array(doc["energies"], dtype=float)
        if V.shape != (doc["k"], g.n) or energies.shape != (doc["k"],):
            raise ValueError(f"states {V.shape} and energies {energies.shape} "
                             f"do not match k={doc['k']}, n={g.n}")
        states = [ScalarField(g, v) for v in V]
        return EigenBasis(g, energies, states, potential, doc.get("meta", {})).validate()
    except (OSError, EOFError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad eigenbasis entry {path}: {exc}") from exc
