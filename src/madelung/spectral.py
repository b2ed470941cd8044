"""Potentials and eigenproblem solvers.

Closed-form mode tables (hard-wall sine, Hermite function) that both the
analytic bases and the off-grid `ModeTables` sample, a finite-difference
solver (symmetric tridiagonal, bisection + inverse iteration with an
extended-precision polish) for everything else, and an on-disk cache so
repeated solves are free: one directory per basis, published by rename
and validated when read.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grids import Grid1D, Grid2D, ScalarField, _grid_weights, trapezoid_weights, write_json

_SIGN_TOL = 1e-8  # relative threshold for the leading-lobe sign convention
# leads every cache key: bump it when the entry format or a solver's output
# changes, so entries written before are never read
_CACHE_VERSION = "npy2|fd_tridiag+polish2"
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


def _barrier_span(potential: WellWithBarrier, grid: Grid1D) -> tuple:
    """First and last grid index of the barrier, its edges snapped to grid
    points."""
    half = 0.5 * potential.barrier_width
    return (int(round((-half - grid.x_min) / grid.h)),
            int(round((half - grid.x_min) / grid.h)))


def sample_potential(potential, grid: Grid1D) -> ScalarField:
    """Sample U(x) on the grid; barrier edges snap to grid points."""
    x = grid.x
    if isinstance(potential, InfiniteWell):
        u = np.zeros(grid.n)
    elif isinstance(potential, WellWithBarrier):
        u = np.zeros(grid.n)
        i_lo, i_hi = _barrier_span(potential, grid)
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
    i_lo, i_hi = _barrier_span(potential, grid)
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
    """Energies and orthonormal eigenfunctions over a grid; states is the
    (k, *grid.shape) array of sampled modes."""

    grid: object
    energies: np.ndarray
    states: np.ndarray
    potential: object
    meta: dict = dc_field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.energies)

    @functools.cached_property
    def _sines(self):
        """The _SineModes of the hard well and the 2D box over all k modes,
        built at the first off-grid evaluation; None for other bases."""
        method = self.meta.get("method")
        if method == "analytic_box2d":
            numbers = np.array(self.meta["pairs"]).T
        elif method == "analytic_well":
            numbers = np.arange(1, self.k + 1)[None]
        else:
            return None
        axes = self.grid.axes
        return _SineModes(numbers, [g.x_min for g in axes], [g.x_max - g.x_min for g in axes])

    def validate(self, strict_ascending: bool = True):
        shape = (self.k,) + self.grid.shape
        if np.shape(self.states) != shape:
            raise ValueError(f"states {np.shape(self.states)} do not match {shape}")
        if not np.isfinite(self.states).all():
            raise ValueError("states not finite")
        diffs = np.diff(self.energies)
        if strict_ascending and not (diffs > 0).all():
            raise ValueError("energies not strictly ascending")
        if not strict_ascending and not (diffs >= 0).all():
            raise ValueError("energies not ascending")
        # trapezoid weights: the discrete product the difference operator
        # is symmetric under, so FD eigenvectors are exactly orthogonal in
        # it; Simpson weights would report spurious 1e-5 overlaps for high
        # modes
        V = self.states.reshape(self.k, -1)
        gram = (V * _grid_weights(self.grid).ravel()) @ V.T
        if np.abs(np.diag(gram) - 1.0).max() > 1e-8:
            raise ValueError("states not normalized to 1e-8")
        off = gram - np.diag(np.diag(gram))
        if np.abs(off).max() > 1e-6:
            raise ValueError(f"states not orthogonal: max overlap {np.abs(off).max():.2e}")
        return self


def _fix_sign(V: np.ndarray) -> np.ndarray:
    # first lobe (scanning from x_min) of each mode along the last axis is
    # positive
    big = np.abs(V) > _SIGN_TOL * np.abs(V).max(axis=-1, keepdims=True)
    lead = np.take_along_axis(V, np.argmax(big, axis=-1)[..., None], axis=-1)
    return np.where(lead < 0, -V, V)


def _apply_h(dl: np.ndarray, el: np.ndarray, W: np.ndarray, HW: np.ndarray,
             tmp: np.ndarray):
    """HW = T W for the tridiagonal T = (dl, el), each e*W product staged in
    tmp; returns the Rayleigh quotients, the column sums of W*HW."""
    np.multiply(dl[:, None], W, out=HW)
    np.multiply(el[:, None], W[1:], out=tmp[:-1])
    np.add(HW[:-1], tmp[:-1], out=HW[:-1])
    np.multiply(el[:, None], W[:-1], out=tmp[:-1])
    np.add(HW[1:], tmp[:-1], out=HW[1:])
    return np.multiply(W, HW, out=tmp).sum(axis=0)


def _polish_pairs(d: np.ndarray, e: np.ndarray, vals: np.ndarray, vecs: np.ndarray):
    """One-step-per-sweep inverse iteration in extended precision.

    Float64 bisection/inverse-iteration residuals sit at the backward
    stability floor eps*|H|, which for h ~ 1e-4 exceeds the 1e-8 target;
    two longdouble sweeps push them to ~1e-11.

    The working set is three (n, k) longdouble arrays: the pivots c, the
    iterate (the forward sweep's g, overwritten by the back-substitution
    with W) and HW. Row i of the previous iterate is read before g_i
    replaces it, and the float64 vecs are read row by row, an exact cast.
    """
    dl = d.astype(np.longdouble)
    el = e.astype(np.longdouble)
    n, k = vecs.shape
    lam = vals.astype(np.longdouble)
    c = np.empty((n, k), np.longdouble)  # pivots, then staged products
    W = np.empty((n, k), np.longdouble)
    HW = np.empty((n, k), np.longdouble)
    m = np.empty(k, np.longdouble)
    r = np.empty(k, np.longdouble)
    tiny = np.longdouble(1e-300)
    V = vecs
    for _ in range(2):
        # vectorized Thomas solve of (T - lam_j) w_j = v_j for all j
        np.subtract(dl[0], lam, out=m)
        np.copyto(m, tiny, where=np.abs(m) < tiny)
        np.divide(el[0], m, out=c[0])
        np.divide(V[0], m, out=W[0])
        for i in range(1, n):
            np.subtract(dl[i], lam, out=m)
            np.subtract(m, np.multiply(el[i - 1], c[i - 1], out=r), out=m)
            np.copyto(m, tiny, where=np.abs(m) < tiny)
            if i < n - 1:
                np.divide(el[i], m, out=c[i])
            np.subtract(V[i], np.multiply(el[i - 1], W[i - 1], out=r), out=W[i])
            np.divide(W[i], m, out=W[i])
        for i in range(n - 2, -1, -1):
            np.subtract(W[i], np.multiply(c[i], W[i + 1], out=r), out=W[i])
        W /= np.sqrt(np.multiply(W, W, out=c).sum(axis=0))
        lam = _apply_h(dl, el, W, HW, c)
        V = W
    # independent shifts cross-talk inside near-degenerate clusters
    # (tall-barrier doublets), so re-orthogonalize within each cluster
    scale = np.abs(dl).max() + 2.0 * np.abs(el).max()
    col = c.reshape(-1)[:n]
    changed = False
    j = 0
    while j < k:
        end = j + 1
        while end < k and lam[end] - lam[end - 1] < 1e-8 * scale:
            end += 1
        for a in range(j + 1, end):
            for b in range(j, a):
                s = np.multiply(W[:, b], W[:, a], out=col).sum()
                np.subtract(W[:, a], np.multiply(s, W[:, b], out=col), out=W[:, a])
            W[:, a] /= np.sqrt(np.multiply(W[:, a], W[:, a], out=col).sum())
            changed = True
        j = end
    if changed:
        lam = _apply_h(dl, el, W, HW, c)
    del c, col  # the float64 copies take its place
    return lam.astype(float), W.astype(float), HW.astype(float)


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
    # imported here: scipy.linalg adds about 0.25 s to import, and runs on
    # analytic bases never solve
    from scipy.linalg import eigh_tridiagonal

    try:
        vals, vecs = eigh_tridiagonal(
            H.diagonal, H.offdiag, select="i", select_range=(0, k - 1)
        )
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise RuntimeError(f"eigensolve failed to converge: {exc}")
    lam, V, HV = _polish_pairs(H.diagonal, H.offdiag, vals, vecs)
    # residual acceptance per pair
    r = np.abs(HV - lam * V).max(axis=0)
    bad = np.flatnonzero(r > 1e-8 * np.abs(V).max(axis=0))
    if bad.size:
        j = bad[0]
        raise RuntimeError(f"eigenpair {j} residual {r[j]:.2e} exceeds tolerance")
    order = np.argsort(lam)
    lam = lam[order]
    full = np.zeros((k, grid.n))
    full[:, 1:-1] = V[:, order].T
    nrm = np.sum(trapezoid_weights(grid.n, grid.h) * full**2, axis=1)
    states = _fix_sign(full / np.sqrt(nrm)[:, None])
    basis = EigenBasis(grid, lam, states, potential, {"method": "fd_tridiag"})
    basis.validate()
    return basis


# ------------------------------------------------------------ mode tables


class _SineModes:
    """Hard-wall modes sqrt(2/w) sin(n pi (x - lo) / w) and their
    x-derivatives along D axes, for the (D, k) mode numbers n.  The
    per-mode constants n pi, sqrt(2/w) and sqrt(2/w) n pi / w are computed
    once; take picks out the modes of one ModeTables."""

    def __init__(self, numbers, lo, width):
        npi = np.asarray(numbers)[:, :, None] * math.pi  # (D, k, 1)
        D = len(npi)
        self.lo = np.reshape(lo, (D, 1, 1)).astype(float)
        self.width = np.reshape(width, (D, 1, 1)).astype(float)
        self.npi = npi
        amp = np.sqrt(2.0 / self.width)
        self.scale = np.stack([np.broadcast_to(amp, npi.shape), amp * (npi / self.width)])

    def take(self, idx) -> "_SineModes":
        """The modes idx alone, their constants copied out once."""
        sel = object.__new__(_SineModes)
        sel.lo, sel.width = self.lo, self.width
        sel.npi, sel.scale = self.npi.take(idx, axis=1), self.scale.take(idx, axis=2)
        return sel

    def __call__(self, pts):
        """Every mode at the points pts, a (D, *shape) array with one row
        per axis: (2, D, k, *shape), the values, then the x-derivatives."""
        arg = self.npi * (pts.reshape(len(self.npi), 1, -1) - self.lo)
        arg /= self.width
        table = np.empty((2,) + arg.shape)
        np.sin(arg, out=table[0])
        np.cos(arg, out=table[1])
        table *= self.scale
        return table.reshape(table.shape[:3] + pts.shape[1:])


def _hermite_modes(omega: float, idx: np.ndarray, x, out=None):
    """Hermite functions n = idx of U = omega^2 x^2 / 2, by the stable
    normalized recurrence, signed so the first lobe from the left is
    positive: out[0] the values, out[1] the x-derivatives, a mode axis
    leading."""
    n_max = int(idx.max())
    xi = math.sqrt(omega) * np.asarray(x, dtype=float)
    chain = [(omega / math.pi) ** 0.25 * np.exp(-0.5 * xi**2)]
    if n_max >= 1:
        chain.append(math.sqrt(2.0) * xi * chain[0])
    for m in range(1, n_max):
        chain.append(
            math.sqrt(2.0 / (m + 1)) * xi * chain[m] - math.sqrt(m / (m + 1.0)) * chain[m - 1]
        )
    if out is None:
        out = np.empty((2, len(idx)) + xi.shape)
    for j, n in enumerate(idx):
        flip = -1.0 if n % 2 else 1.0
        lower = chain[n - 1] if n >= 1 else 0.0
        out[0, j] = flip * chain[n]
        out[1, j] = flip * (math.sqrt(omega) * (math.sqrt(2.0 * n) * lower - xi * chain[n]))
    return out


def _lagrange_weights(s: float):
    # cubic Lagrange on offsets {-1, 0, 1, 2}
    return (
        -s * (s - 1.0) * (s - 2.0) / 6.0,
        (s * s - 1.0) * (s - 2.0) / 2.0,
        -s * (s + 1.0) * (s - 2.0) / 2.0,
        s * (s * s - 1.0) / 6.0,
    )


def _lagrange_dweights(s: float):
    return (
        -(3.0 * s * s - 6.0 * s + 2.0) / 6.0,
        (3.0 * s * s - 4.0 * s - 1.0) / 2.0,
        -(3.0 * s * s - 2.0 * s - 2.0) / 2.0,
        (3.0 * s * s - 1.0) / 6.0,
    )


def _interp_modes(basis: EigenBasis, idx: np.ndarray, x, out=None):
    """Cubic interpolation of the sampled modes, gathering only the four
    stencil columns of the selected modes: out[0] the values, out[1] the
    x-derivatives, a mode axis leading."""
    g = basis.grid
    x = np.asarray(x, dtype=float)
    u = (x - g.x_min) / g.h
    i = np.clip(np.floor(u).astype(int), 1, g.n - 3)
    s = u - i
    rows = idx.reshape(idx.shape + (1,) * x.ndim)
    c0, c1, c2, c3 = (basis.states[rows, i + off] for off in (-1, 0, 1, 2))
    w0, w1, w2, w3 = _lagrange_weights(s)
    d0, d1, d2, d3 = _lagrange_dweights(s)
    if out is None:
        out = np.empty((2,) + c0.shape)
    np.add(c0 * w0 + c1 * w1 + c2 * w2, c3 * w3, out=out[0])
    np.divide(c0 * d0 + c1 * d1 + c2 * d2 + c3 * d3, g.h, out=out[1])
    return out


class ModeTables:
    """Modes idx of a basis at arbitrary points: closed forms for the hard
    well, the harmonic oscillator and the 2D box, cubic interpolation of
    the sampled modes otherwise.  Built once for repeated calls: the sine
    bases' constants of the selected modes are taken here, and nothing
    grid-sized is copied."""

    def __init__(self, basis: EigenBasis, idx):
        self.basis = basis
        self.idx = np.asarray(idx, dtype=int)
        self.method = basis.meta.get("method")
        sines = basis._sines
        self.sines = None if sines is None else sines.take(self.idx)

    def __call__(self, *coords, out=None):
        """The tables at the points, one coordinate array per grid axis: a
        float (1 + ndim, K, *shape) array, the values, then the derivative
        along each axis.  out, if given, is such an array of any strides
        that the tables are written into, and the coordinates must all have
        its shape; the off-grid evaluator passes the real part of its
        complex matmul operand."""
        if len(coords) != self.basis.grid.ndim:
            raise ValueError(f"{self.basis.grid.ndim}D basis: one coordinate array per axis")
        if out is None:
            coords = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in coords))
            out = np.empty((1 + len(coords), self.idx.size) + coords[0].shape)
        if self.method == "analytic_box2d":
            sines = self.sines(np.array(coords, dtype=float))
            np.multiply(sines[:, 0], sines[0, 1], out=out[:2])  # (fx, dfx) fy
            np.multiply(sines[0, 0], sines[1, 1], out=out[2])  # fx dfy
        elif self.method == "analytic_well":
            out[...] = self.sines(np.array(coords, dtype=float))[:, 0]
        elif self.method == "analytic_hermite":
            _hermite_modes(self.basis.meta["omega"], self.idx, coords[0], out)
        else:
            _interp_modes(self.basis, self.idx, coords[0], out)
        return out


# ----------------------------------------------------------- analytic bases


def _analytic_states(potential, grid: Grid1D, modes: np.ndarray):
    """Energies and sampled states of the hard-wall well (modes from 1) or
    the harmonic oscillator (modes from 0): the mode tables at grid.x."""
    if isinstance(potential, InfiniteWell):
        a = potential.half_width
        if abs(grid.x_min + a) > 1e-12 or abs(grid.x_max - a) > 1e-12:
            raise ValueError("grid must span [-a, a] exactly")
        width = 2.0 * a
        # a copy of the values, so the derivative half of the table is
        # freed here: holding it adds about 2 MB to the peak RSS of a
        # 140-mode build
        V = _SineModes([modes], grid.x_min, width)(grid.x[None])[0, 0].copy()
        return modes**2 * math.pi**2 / (2.0 * width**2), _fix_sign(V)
    omega = potential.omega
    if omega <= 0:
        raise ValueError("omega must be positive")
    V = _hermite_modes(omega, modes, grid.x)[0].copy()  # values only, as above
    edge = np.maximum(np.abs(V[:, 0]), np.abs(V[:, -1]))
    if (edge >= 1e-12).any():
        j = int(np.argmax(edge >= 1e-12))
        raise ValueError(
            f"grid too narrow for harmonic mode {modes[j]}: edge amplitude {edge[j]:.2e}"
        )
    return (modes + 0.5) * omega, _fix_sign(V)


# analytic 1D bases: basis method and first mode number
_ANALYTIC = {InfiniteWell: ("analytic_well", 1), Harmonic: ("analytic_hermite", 0)}


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
    if type(potential) in _ANALYTIC:
        method, first = _ANALYTIC[type(potential)]
        energies, V = _analytic_states(potential, grid, np.arange(first, first + k))
        basis = EigenBasis(grid, energies, V, potential, {"method": method})
        if isinstance(potential, Harmonic):
            # the off-grid Hermite modes need omega, also in a basis loaded
            # without its potential
            basis.meta["omega"] = potential.omega
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
    gx, gy = grid2.axes
    wx, wy = gx.x_max - gx.x_min, gy.x_max - gy.x_min
    nx, ny = np.array(pairs).T
    ux = _SineModes([nx], gx.x_min, wx)(gx.x[None])[0, 0]
    uy = _SineModes([ny], gy.x_min, wy)(gy.x[None])[0, 0]
    basis = EigenBasis(
        grid2,
        0.5 * math.pi**2 * (nx**2 / wx**2 + ny**2 / wy**2),
        ux[:, :, None] * uy[:, None, :],
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
    np.save(os.path.join(path, _STATES_FILE), basis.states)
    g = basis.grid
    doc = {
        "energies": [float(e) for e in basis.energies],
        "grid": {"x_min": g.x_min, "x_max": g.x_max, "n": g.n},
        "k": basis.k,
        "meta": basis.meta,
        "states": _STATES_FILE,
    }
    write_json(os.path.join(path, "basis.json"), doc)


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
        if energies.shape != (doc["k"],):
            raise ValueError(f"energies {energies.shape} do not match k={doc['k']}")
        return EigenBasis(g, energies, V, potential, doc.get("meta", {})).validate()
    except (OSError, EOFError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad eigenbasis entry {path}: {exc}") from exc
