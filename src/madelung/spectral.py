"""Potentials and eigenproblem solvers.

Closed-form mode tables (hard-wall sine, Hermite function) that both the
analytic bases and the off-grid `ModeTables` sample, a finite-difference
solver (symmetric tridiagonal, bisection + inverse iteration with an
extended-precision polish) for everything else, and an on-disk cache so
repeated solves are free: one directory per basis, published by rename
and validated when read.
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

from .grids import Grid1D, Grid2D, _grid_weights, trapezoid_weights, write_json

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

    def __post_init__(self):
        # a width <= 0 samples no barrier, and one as wide as the well
        # wraps its first index to the far edge
        if not 0 < self.barrier_width < 2 * self.half_width:
            raise ValueError(f"barrier width {self.barrier_width!r} must lie in "
                             f"(0, {2 * self.half_width!r}), the well's width")


@dataclass(frozen=True)
class Harmonic:
    omega: float


@dataclass(frozen=True)
class QuarticDoubleWell:
    """Fixed double well 240 x^4 - 120 x^2 + 15: minima 0 at +-1/2, hump 15 at 0."""


@dataclass(frozen=True, eq=False)
class Tabulated:
    """U sampled on a grid: values of the grid's shape.  Equality and the
    hash are those of the object, since an array field has neither."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        if np.shape(self.values) != self.grid.shape:
            raise ValueError(f"values shape {np.shape(self.values)} does not match "
                             f"grid {self.grid.shape}")


def _check_walls(potential, grid: Grid1D):
    """Refuse a hard-wall well whose walls +-a are not the grid's ends."""
    a = potential.half_width
    if abs(grid.x_min + a) > 1e-12 or abs(grid.x_max - a) > 1e-12:
        raise ValueError("grid must span [-a, a] exactly")


def _barrier_span(potential: WellWithBarrier, grid: Grid1D) -> tuple:
    """First and last grid index of the barrier, its edges snapped to grid
    points.  A barrier both of whose edges snap to one point is refused:
    its snapped width would read 0."""
    half = 0.5 * potential.barrier_width
    i_lo = int(round((-half - grid.x_min) / grid.h))
    i_hi = int(round((half - grid.x_min) / grid.h))
    if i_lo == i_hi:
        raise ValueError(f"barrier width {potential.barrier_width!r} covers one grid "
                         f"point at h = {grid.h!r}; widen it or refine the grid")
    return i_lo, i_hi


def sample_potential(potential, grid: Grid1D) -> np.ndarray:
    """Sample U(x) on the grid; barrier edges snap to grid points."""
    x = grid.x
    if isinstance(potential, (InfiniteWell, WellWithBarrier)):
        _check_walls(potential, grid)
        u = np.zeros(grid.n)
        if isinstance(potential, WellWithBarrier):
            i_lo, i_hi = _barrier_span(potential, grid)
            u[i_lo : i_hi + 1] = potential.barrier_height
    elif isinstance(potential, Harmonic):
        u = 0.5 * potential.omega**2 * x**2
    elif isinstance(potential, QuarticDoubleWell):
        u = 240.0 * x**4 - 120.0 * x**2 + 15.0
    elif isinstance(potential, Tabulated):
        if potential.grid != grid:
            raise ValueError("tabulated potential grid does not match")
        u = np.array(potential.values, dtype=float)
    else:
        raise TypeError(f"unknown potential {type(potential).__name__}")
    if not np.isfinite(u).all():
        raise ValueError("potential must be finite on the interior")
    return u


def snapped_barrier_width(potential: WellWithBarrier, grid: Grid1D) -> float:
    """Actual barrier width after snapping edges to grid points."""
    _check_walls(potential, grid)
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
    u = sample_potential(potential, grid)
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

    @property
    def first(self) -> int:
        """Index of the first pair held: a basis solved over an index
        window holds pairs first..first+k-1, every other basis from 0."""
        return self.meta.get("first", 0)

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


_TINY_PIVOT = np.longdouble(1e-300)


def _inverse_sweeps(dl, el, lam, vecs, c, W, HW, clamp: bool):
    """Two vectorized Thomas solves of (T - lam_j) w_j = v_j, each followed
    by normalization and new Rayleigh quotients; returns them, or None when
    an unclamped run meets a pivot under _TINY_PIVOT (or a NaN one).

    W starts as the exact longdouble cast of vecs, and each sweep
    overwrites row i of the previous iterate with g_i after reading it; the
    back-substitution then turns g into the new iterate. The pivots of a
    sweep sit in HW, which starts as the shifted diagonal dl_i - lam_j.
    With clamp, a pivot under _TINY_PIVOT is set to it as it is formed.
    """
    n, k = W.shape
    r = np.empty(k, np.longdouble)
    # the off-diagonal as stride-0 rows, which a ufunc reads faster than a
    # scalar; the last row's c is never read, so a zero e_{n-1} lets that
    # row share the loop
    E = np.broadcast_to(np.append(el, 0)[:, None], (n, k))
    cs, Ms, Ws, Es = list(c), list(HW), list(W), list(E)
    sub, mul, div = np.subtract, np.multiply, np.divide
    np.copyto(W, vecs)
    for _ in range(2):
        sub(dl[:, None], lam, out=HW)
        m = HW[0]
        if clamp:
            np.copyto(m, _TINY_PIVOT, where=np.abs(m) < _TINY_PIVOT)
        div(el[0], m, out=c[0])
        div(W[0], m, out=W[0])
        for e0, e1, c0, c1, m, w0, w1 in zip(Es, Es[1:], cs, cs[1:], Ms[1:], Ws, Ws[1:]):
            sub(m, mul(e0, c0, out=r), out=m)
            if clamp:
                np.copyto(m, _TINY_PIVOT, where=np.abs(m) < _TINY_PIVOT)
            div(e1, m, out=c1)
            sub(w1, mul(e0, w0, out=r), out=w1)
            div(w1, m, out=w1)
        # in place: a temporary of |HW| would be a fourth (n, k) array
        if not clamp and not np.abs(HW, out=HW).min() >= _TINY_PIVOT:
            return None
        for ci, wi, w1 in zip(cs[-2::-1], Ws[-2::-1], Ws[:0:-1]):
            sub(wi, mul(ci, w1, out=r), out=wi)
        W /= np.sqrt(mul(W, W, out=c).sum(axis=0))
        lam = _apply_h(dl, el, W, HW, c)
    return lam


def _polish_pairs(d: np.ndarray, e: np.ndarray, vals: np.ndarray, vecs: np.ndarray):
    """One-step-per-sweep inverse iteration in extended precision.

    Float64 bisection/inverse-iteration residuals sit at the backward
    stability floor eps*|H|, which for h ~ 1e-4 exceeds the 1e-8 target;
    two longdouble sweeps push them to ~1e-11.

    The working set is three (n, k) longdouble arrays: the Thomas
    coefficients c, the iterate W and HW, which holds the pivots during a
    sweep and H times the iterate after it. The sweeps run unclamped; only
    when a pivot comes out under 1e-300 (or NaN) do they run again from
    vals and vecs with each pivot clamped as it is formed. Unclamped
    pivots that all pass are the clamped run's, so either way the bits
    are those of the clamped run.
    """
    dl = d.astype(np.longdouble)
    el = e.astype(np.longdouble)
    n, k = vecs.shape
    c = np.empty((n, k), np.longdouble)  # Thomas coefficients, then staged products
    W = np.empty((n, k), np.longdouble)
    HW = np.empty((n, k), np.longdouble)
    lam0 = vals.astype(np.longdouble)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam = _inverse_sweeps(dl, el, lam0, vecs, c, W, HW, clamp=False)
    if lam is None:
        lam = _inverse_sweeps(dl, el, lam0, vecs, c, W, HW, clamp=True)
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


def solve_eigen(H: SymTridiag, k: int, grid: Grid1D, potential=None,
                first: int = 0) -> EigenBasis:
    """Eigenpairs first..k-1 (0-based, ascending) of the discrete
    Hamiltonian: the lowest k with first = 0, an index window otherwise.

    LAPACK bisection + inverse iteration on the symmetric tridiagonal
    matrix, then an extended-precision polish.  Every pair is accepted
    only if |H psi - E psi|_inf <= 1e-8 |psi|_inf, read on the polish's
    longdouble iterate and H psi each cast to float64, not on the
    renormalized float64 vectors returned.  On fine grids those sit at
    the float64 floor eps |diag H| instead: 3.2e-8, taken in longdouble,
    for the lowest 6 pairs of WellWithBarrier(1, 15, 0.2) at n = 20001.
    Where a polished pair misses the bound, LAPACK's own float64 pair
    takes its place if it meets it, and meta["unpolished"] lists those
    pair indices; otherwise the solve raises.
    """
    dim = len(H.diagonal)
    if k >= dim:
        raise ValueError(f"k={k} must be below interior dimension {dim}")
    if k < 1:
        raise ValueError("k must be positive")
    if not 0 <= first < k:
        raise ValueError(f"first={first} must lie in [0, k={k})")
    # imported here: scipy.linalg adds about 0.25 s to import, and runs on
    # analytic bases never solve
    from scipy.linalg import eigh_tridiagonal

    try:
        vals, vecs = eigh_tridiagonal(
            H.diagonal, H.offdiag, select="i", select_range=(first, k - 1)
        )
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise RuntimeError(f"eigensolve failed to converge: {exc}")
    lam, V, HV = _polish_pairs(H.diagonal, H.offdiag, vals, vecs)
    # residual acceptance per pair
    r = np.abs(HV - lam * V).max(axis=0)
    bad = np.flatnonzero(r > 1e-8 * np.abs(V).max(axis=0))
    if bad.size:
        # the unpivoted polish can blow up on a tiny pivot of the shifted
        # matrix; a LAPACK pair that already meets the bound on its own
        # float64 vector is kept as is
        r = _residuals(H, vecs[:, bad].T, vals[bad])
        fail = np.flatnonzero(r > 1e-8)
        if fail.size:
            j = fail[0]
            raise RuntimeError(f"eigenpair {first + bad[j]} residual {r[j]:.2e} "
                               "exceeds tolerance")
        lam[bad] = vals[bad]
        V[:, bad] = vecs[:, bad]
    order = np.argsort(lam)
    lam = lam[order]
    full = np.zeros((k - first, grid.n))
    full[:, 1:-1] = V[:, order].T
    nrm = np.sum(trapezoid_weights(grid.n, grid.h) * full**2, axis=1)
    V = full / np.sqrt(nrm)[:, None]
    # the first lobe of each mode, scanning from x_min, is positive
    big = np.abs(V) > _SIGN_TOL * np.abs(V).max(axis=-1, keepdims=True)
    lead = np.take_along_axis(V, np.argmax(big, axis=-1)[..., None], axis=-1)
    states = np.where(lead < 0, -V, V)
    basis = EigenBasis(grid, lam, states, potential,
                       {"method": "fd_tridiag", "first": first})
    if bad.size:
        basis.meta["unpolished"] = [first + int(j) for j in bad]
    basis.validate()
    return basis


def _residuals(H: SymTridiag, V: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """|H v - E v|_inf / |v|_inf for each row v of V, over H's interior
    points.  Elementwise, with no BLAS product, so its bits do not depend
    on the BLAS thread count."""
    R = H.diagonal * V
    R[:, :-1] += H.offdiag * V[:, 1:]
    R[:, 1:] += H.offdiag * V[:, :-1]
    R -= energies[:, None] * V
    return np.abs(R).max(axis=1) / np.abs(V).max(axis=1)


def max_residual(basis: EigenBasis) -> float:
    """Largest |H psi - E psi|_inf / |psi|_inf over the float64 states of a
    finite-difference basis, H = build_hamiltonian(potential, grid)."""
    H = build_hamiltonian(basis.potential, basis.grid)
    return float(_residuals(H, basis.states[:, 1:-1], basis.energies).max())


# ------------------------------------------------------------ mode tables


class _SineModes:
    """Hard-wall modes sqrt(2/w) sin(n pi (x - lo) / w) and their
    x-derivatives along D axes, for the (D, k) mode numbers n.  The
    per-mode constants n pi, sqrt(2/w) and sqrt(2/w) n pi / w are computed
    once, when it is built."""

    def __init__(self, numbers, lo, width):
        npi = np.ascontiguousarray(numbers)[:, :, None] * math.pi  # (D, k, 1)
        D = len(npi)
        self.lo = np.reshape(lo, (D, 1, 1)).astype(float)
        self.width = np.reshape(width, (D, 1, 1)).astype(float)
        self.npi = npi
        amp = np.sqrt(2.0 / self.width)
        self.scale = np.stack([np.broadcast_to(amp, npi.shape), amp * (npi / self.width)])

    def _arg(self, pts):
        arg = self.npi * (pts[:, None] - self.lo)
        arg /= self.width
        return arg

    def __call__(self, pts):
        """Every mode at the (D, n) points pts, one row per axis: (2, D, k,
        n), the values, then the x-derivatives.  sin and cos write into one
        contiguous array: on a strided out NumPy may take another float64
        loop and move the last bits."""
        arg = self._arg(pts)
        table = np.empty((2,) + arg.shape)
        np.sin(arg, out=table[0])
        np.cos(arg, out=table[1])
        table *= self.scale
        return table

    def values(self, pts):
        """The values half of self(pts), (D, k, n), bit for bit, with no
        derivative half built: sin into a fresh contiguous array, then the
        amplitudes."""
        table = np.sin(self._arg(pts))
        table *= self.scale[0]
        return table


def _hermite_chain(omega: float, n_max: int, x):
    """xi = sqrt(omega) x and the Hermite functions 0..n_max of U = omega^2
    x^2 / 2 at x by the stable normalized recurrence, one row per function,
    unsigned."""
    xi = math.sqrt(omega) * np.asarray(x, dtype=float)
    chain = np.empty((n_max + 1,) + xi.shape)
    chain[0] = (omega / math.pi) ** 0.25 * np.exp(-0.5 * xi**2)
    if n_max >= 1:
        chain[1] = math.sqrt(2.0) * xi * chain[0]
    for m in range(1, n_max):
        chain[m + 1] = (math.sqrt(2.0 / (m + 1)) * xi * chain[m]
                        - math.sqrt(m / (m + 1.0)) * chain[m - 1])
    return xi, chain


def _hermite_modes(omega: float, idx: np.ndarray, x, out: np.ndarray):
    """Hermite functions n = idx of U = omega^2 x^2 / 2, signed so the first
    lobe from the left is positive: out[0] the values, out[1] the
    x-derivatives, a mode axis leading."""
    xi, chain = _hermite_chain(omega, int(idx.max()), x)
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


# the cubic stencil's offsets {-1, 0, 1, 2}, one per leading row
_STENCIL = np.arange(-1, 3)[:, None, None]


def _interp_modes(basis: EigenBasis, idx: np.ndarray, x, out: np.ndarray):
    """Cubic interpolation of the sampled modes at the (n,) points x:
    out[0] the values, out[1] the x-derivatives, a mode axis leading.  One
    take gathers the four stencil values of every point and selected mode
    from the C-ordered states, points first, as the paired evaluator's
    operand holds them."""
    g = basis.grid
    u = (x - g.x_min) / g.h
    i = np.clip(np.floor(u).astype(int), 1, g.n - 3)
    s = (u - i)[:, None]
    c0, c1, c2, c3 = np.take(basis.states, idx * g.n + _STENCIL + i[:, None])
    w0, w1, w2, w3 = _lagrange_weights(s)
    d0, d1, d2, d3 = _lagrange_dweights(s)
    np.add(c0 * w0 + c1 * w1 + c2 * w2, c3 * w3, out=out[0].T)
    np.divide(c0 * d0 + c1 * d1 + c2 * d2 + c3 * d3, g.h, out=out[1].T)
    return out


class ModeTables:
    """Modes idx of a basis at arbitrary points: closed forms for the hard
    well, the harmonic oscillator and the 2D box, cubic interpolation of
    the sampled modes otherwise.  Built once for repeated calls: the sine
    bases' constants of the selected modes are computed here, and nothing
    grid-sized is copied."""

    def __init__(self, basis: EigenBasis, idx):
        self.basis = basis
        self.idx = np.asarray(idx, dtype=int)
        self.method = basis.meta.get("method")
        self.sines = None
        if self.method == "analytic_well":
            numbers = (self.idx + 1)[None]
        elif self.method == "analytic_box2d":
            numbers = np.array(basis.meta["pairs"])[self.idx].T
        else:
            return
        axes = basis.grid.axes
        self.sines = _SineModes(numbers, [g.x_min for g in axes],
                                [g.x_max - g.x_min for g in axes])

    def __call__(self, *coords):
        """The tables at the points, one coordinate array per grid axis: a
        float (1 + ndim, K, *shape) array, the values, then the derivative
        along each axis."""
        if len(coords) != self.basis.grid.ndim:
            raise ValueError(f"{self.basis.grid.ndim}D basis: one coordinate array per axis")
        coords = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in coords))
        out = np.empty((1 + len(coords), self.idx.size) + coords[0].shape)
        self.fill(np.reshape(coords, (len(coords), -1)), out.reshape(out.shape[:2] + (-1,)))
        return out

    def fill(self, pts, out):
        """Write the tables at the (D, n) float points pts into out, a
        (1 + D, K, n) float array of any strides; the off-grid evaluator
        passes the real part of its complex matmul operand."""
        if self.method == "analytic_box2d":
            sines = self.sines(pts)
            np.multiply(sines[:, 0], sines[0, 1], out=out[:2])  # (fx, dfx) fy
            np.multiply(sines[0, 0], sines[1, 1], out=out[2])  # fx dfy
        elif self.method == "analytic_well":
            out[...] = self.sines(pts)[:, 0]
        elif self.method == "analytic_hermite":
            _hermite_modes(self.basis.meta["omega"], self.idx, pts[0], out)
        else:
            _interp_modes(self.basis, self.idx, pts[0], out)
        return out


# ----------------------------------------------------------- analytic bases


def _analytic_basis(potential, grid: Grid1D, k: int) -> EigenBasis:
    """The lowest k states of the hard-wall well (modes from 1) or the
    harmonic oscillator (modes from 0): the values their ModeTables give on
    the grid, bit for bit, sampled without the derivative half."""
    if isinstance(potential, InfiniteWell):
        _check_walls(potential, grid)
        n, width = np.arange(1, k + 1), 2.0 * potential.half_width
        energies = n**2 * math.pi**2 / (2.0 * width**2)
        meta = {"method": "analytic_well"}
        # the grid's span, as ModeTables takes it, so the bits are the same
        V = _SineModes([n], grid.x_min, grid.x_max - grid.x_min).values(grid.x[None])[0]
    else:
        omega = potential.omega
        if omega <= 0:
            raise ValueError("omega must be positive")
        energies = (np.arange(k) + 0.5) * omega
        # the off-grid Hermite modes need omega, also in a basis loaded
        # without its potential
        meta = {"method": "analytic_hermite", "omega": omega}
        _, V = _hermite_chain(omega, k - 1, grid.x)
        V[1::2] *= -1.0  # the signs _hermite_modes gives
    edge = np.maximum(np.abs(V[:, 0]), np.abs(V[:, -1]))
    if isinstance(potential, Harmonic) and (edge >= 1e-12).any():
        j = int(np.argmax(edge >= 1e-12))
        raise ValueError(f"grid too narrow for harmonic mode {j}: edge amplitude {edge[j]:.2e}")
    return EigenBasis(grid, energies, V, potential, meta)


def eigenbasis(potential, grid: Grid1D, k: int, cache_dir: str | None = None,
               first: int = 0) -> EigenBasis:
    """Eigenbasis of the lowest k states: analytic when exact forms exist
    (hard-wall well, harmonic oscillator), finite-difference otherwise.
    first > 0 keeps only the states first..k-1 (see solve_eigen), which
    only a finite-difference solve offers.

    cache_dir (or env MADELUNG_CACHE_DIR) enables the on-disk cache: one
    entry directory per key, holding basis.json and states.npy.  A miss
    writes the entry in a temporary directory and renames it into place,
    so a reader sees a complete entry or none; a hit is validated on load,
    and a bad entry, or one whose grid or index range is not the one
    asked for, raises.
    """
    analytic = isinstance(potential, (InfiniteWell, Harmonic))
    if first and analytic:
        raise ValueError(f"an index window (first={first}) needs a finite-difference "
                         f"basis, not {type(potential).__name__}")
    cache_dir = cache_dir or os.environ.get("MADELUNG_CACHE_DIR")
    entry = None
    if cache_dir and not isinstance(potential, Tabulated):
        entry = os.path.join(cache_dir, _cache_key(potential, grid, k, first))
        if os.path.isdir(entry):
            basis = load_basis(entry, potential)
            held = (basis.grid, basis.first, basis.first + basis.k)
            if held != (grid, first, k):
                raise ValueError(f"eigenbasis entry {entry} holds states {held[1]}..{held[2] - 1}"
                                 f" on {held[0]}, not {first}..{k - 1} on {grid}")
            return basis
    if analytic:
        basis = _analytic_basis(potential, grid, k)
    else:
        basis = solve_eigen(build_hamiltonian(potential, grid), k, grid, potential, first)
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
    ux = _SineModes([nx], gx.x_min, wx).values(gx.x[None])[0]
    uy = _SineModes([ny], gy.x_min, wy).values(gy.x[None])[0]
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


def _cache_key(potential, grid: Grid1D, k: int, first: int = 0) -> str:
    # a full basis (first = 0) keeps the key it has always had, so the
    # entries written before index windows stay readable
    tag = (f"{_CACHE_VERSION}|{_canon(potential)}"
           f"|{grid.x_min!r},{grid.x_max!r},{grid.n}|k={k}")
    if first:
        tag += f"|first={first}"
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
