"""Band-limited superpositions: exact time evolution, Gaussian projection,
and off-grid analytic evaluation (used by node refinement and streamlines).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grids import Grid1D, quadrature_weights
from .spectral import EigenBasis, ModeTables

CLAMP = 1e-14  # raw projection coefficients below this are exact zeros


@dataclass(frozen=True)
class WavepacketSpec:
    """Gaussian pulse: e^{i p0 (x-x0)} exp(-(x-x0)^2 / 4 sigma^2), normalized."""

    center: float
    momentum: float
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")


@dataclass(frozen=True)
class Superposition:
    """Complex coefficients over selected eigenbasis positions (0-based).

    Frozen, so what every evaluation reuses is built once, at first use:
    the selected energies E and dPsi/dt weights -i E c (read-only) and the
    ModeTables of the selected modes, which copies nothing grid-sized."""

    basis: EigenBasis
    coeffs: np.ndarray
    indices: np.ndarray
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=int))
        if len(self.coeffs) != len(self.indices):
            raise ValueError("coeffs and indices length mismatch")
        if len(self.indices) == 0:
            raise ValueError("empty superposition")
        if self.indices.min() < 0 or self.indices.max() >= self.basis.k:
            raise ValueError("index outside basis")
        if len(set(self.indices.tolist())) != len(self.indices):
            raise ValueError("duplicate indices")
        nrm = np.sum(np.abs(self.coeffs) ** 2)
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"coefficients not normalized: sum |c|^2 = {nrm!r}")

    @functools.cached_property
    def energies(self) -> np.ndarray:
        e = self.basis.energies[self.indices]
        e.flags.writeable = False
        return e

    @functools.cached_property
    def dt_coeffs(self) -> np.ndarray:
        w = -1j * self.energies * self.coeffs
        w.flags.writeable = False
        return w

    @functools.cached_property
    def stacked_coeffs(self) -> np.ndarray:
        # (c, c, -i E c): the weights of an off-grid call that asks for
        # dPsi/dt, one row per table
        w = np.stack([self.coeffs, self.coeffs, self.dt_coeffs])[:, None, :]
        w.flags.writeable = False
        return w

    @functools.cached_property
    def modes(self) -> ModeTables:
        return ModeTables(self.basis, self.indices)

    @property
    def grid(self):
        return self.basis.grid


def superposition(basis: EigenBasis, indices, coeffs, normalize: bool = False,
                  meta: dict | None = None) -> Superposition:
    c = np.asarray(coeffs, dtype=complex)
    if normalize:
        c = c / math.sqrt(float(np.sum(np.abs(c) ** 2)))
    return Superposition(basis, c, np.asarray(indices, dtype=int), meta or {})


def equal_two_mode(basis: EigenBasis, i: int = 0, j: int = 1) -> Superposition:
    """Equal-weight real superposition of two basis states."""
    r = 1.0 / math.sqrt(2.0)
    return Superposition(basis, np.array([r, r], complex), np.array([i, j]))


def _phases(s: Superposition, t):
    """e^{-i E t}, the mode axis last: (K,) for a scalar t, (*t.shape, K)
    for an array t."""
    return np.exp(-1j * np.multiply.outer(t, s.energies))


def evaluate(s: Superposition, t: float) -> np.ndarray:
    """Psi(x, t) = sum c_n psi_n(x) e^{-i E_n t} on the basis grid, an
    array of the grid's shape."""
    return np.tensordot(s.coeffs * _phases(s, t), s.basis.states[s.indices], axes=(0, 0))


def time_derivative(s: Superposition, t: float) -> np.ndarray:
    """dPsi/dt on the basis grid, analytic in t (no finite differencing)."""
    return np.tensordot(s.dt_coeffs * _phases(s, t), s.basis.states[s.indices], axes=(0, 0))


def band_limit(s: Superposition) -> float:
    """Largest eigen-energy carried with nonzero amplitude."""
    live = np.abs(s.coeffs) > 0
    if not live.any():
        raise ValueError("superposition has no live coefficients")
    return float(s.energies[live].max())


# ---------------------------------------------------------------- off-grid


def _off_grid(s: Superposition, pts: np.ndarray, t, time_derivative: bool):
    """Three sums sum_k w_k m_k(x) at the (D, n) float points pts, one
    stacked matmul of the weights with the mode tables, as one (3, n)
    array: (Psi, dPsi/dx, dPsi/dt) with time_derivative, else Psi and its
    derivative along each of the two axes, which for a 1D call is (Psi,
    dPsi/dx, 0).  t is a float, or a float (n,) array paired with the
    points.

    The state's ModeTables writes the tables straight into the real part of
    the complex matmul operand.  For one time that is modes first,
    (J, 1, K) @ (3, K, n).  For t paired with the points it is points
    first and each point takes its own dot product, (J, n, 1, K) @ (3, n,
    K, 1): the BLAS dot a one-point call makes, so paired and one-point
    calls agree bit for bit.  The matrix axes of both operands are
    C-ordered: matmul reaches BLAS only through unit-stride rows, and a
    None axis or a transposed stack there would miss it.  The weights are
    one row (J = 1), which matmul broadcasts over the three tables, or
    three rows (J = 3) when dPsi/dt is asked for.
    """
    D, n = pts.shape
    K = s.energies.size
    paired = isinstance(t, np.ndarray)
    op = np.zeros((3, n, K) if paired else (3, K, n), dtype=complex)
    tables = op.real.transpose(0, 2, 1) if paired else op.real
    s.modes.fill(pts, tables[:1 + D])
    ph = _phases(s, t)
    if time_derivative:
        op[2] = op[0]
        w = np.multiply(s.stacked_coeffs, ph)
    else:
        w = np.multiply(s.coeffs, ph)
    if paired:
        return (w.reshape(-1, n, 1, K) @ op.reshape(3, n, K, 1)).reshape(3, n)
    return (w.reshape(-1, 1, K) @ op).reshape(3, n)


def _stack_points(coords, t):
    """The coordinates stacked once as a float (D, n) array, each broadcast
    to the shape of the result, t as a float or a flat float array paired
    with them, and that shape: t's for an array t, else the coordinates'
    common shape."""
    if np.ndim(t):
        t = np.asarray(t, dtype=float)
        shape = t.shape
        t = t.reshape(-1)
    else:
        t = float(t)
        shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    pts = np.empty((len(coords),) + shape)
    for i, c in enumerate(coords):
        pts[i] = c
    return pts.reshape(len(coords), -1), t, shape


def evaluate_at(s: Superposition, x, t):
    """(Psi, dPsi/dx, dPsi/dt) at arbitrary position(s), analytic in t, as
    one (3, *x.shape) array.

    t is a scalar, or an array paired elementwise with x.  Mode functions
    are analytic for the hard well and harmonic bases and cubic
    interpolations of the sampled modes otherwise.
    """
    if s.grid.ndim != 1:
        raise ValueError("2D states: use evaluate_at_2d")
    pts, t, shape = _stack_points((x,), t)
    return _off_grid(s, pts, t, True).reshape((3,) + shape)


def evaluate_at_2d(s: Superposition, x, y, t):
    """(Psi, dPsi/dx, dPsi/dy) at arbitrary 2D position(s) for the analytic
    box product-state basis, as one (3, *shape) array; t is a scalar, or an
    array paired with x, y."""
    if s.grid.ndim != 2:
        raise ValueError("1D states: use evaluate_at")
    pts, t, shape = _stack_points((x, y), t)
    return _off_grid(s, pts, t, False).reshape((3,) + shape)


# ------------------------------------------------------------- projection


def gaussian_values(packet: WavepacketSpec, x: np.ndarray) -> np.ndarray:
    dx = x - packet.center
    return np.exp(1j * packet.momentum * dx - dx**2 / (4.0 * packet.width**2))


def leaked_norm(packet: WavepacketSpec, grid: Grid1D) -> float:
    """Probability mass of the ideal Gaussian outside the well walls."""
    s2 = packet.width * math.sqrt(2.0)
    left = 0.5 * math.erfc((packet.center - grid.x_min) / s2)
    right = 0.5 * math.erfc((grid.x_max - packet.center) / s2)
    return left + right


def project_field(basis: EigenBasis, values: np.ndarray, eta: float = 1e-3) -> Superposition:
    """Expand normalized grid values over the basis, truncate at relative
    threshold eta on the coefficient magnitudes, and renormalize.

    The recorded truncation_index is the largest retained mode number
    (1-based, counted from the lowest state also on a basis that holds an
    index window); captured_norm is the probability held by the retained
    coefficients before renormalization.
    """
    w = quadrature_weights(basis.grid)  # built once for every mode
    nrm = math.sqrt(float(np.sum(w * np.abs(values) ** 2).real))
    vals = values / nrm
    # one product for every mode, weighted in place (a second k-row
    # complex temporary costs more than the loop it replaces); each row is
    # summed as np.sum sums one mode's product
    prod = basis.states * vals
    prod *= w
    raw = prod.reshape(basis.k, -1).sum(axis=1)
    raw[np.abs(raw) < CLAMP] = 0.0
    keep = np.abs(raw) >= eta * np.abs(raw).max()
    idx = np.nonzero(keep)[0]
    c = raw[idx]
    captured = float(np.sum(np.abs(c) ** 2))
    c = c / math.sqrt(captured)
    meta = {
        "truncation_index": basis.first + int(idx.max()) + 1,
        "eta": eta,
        "captured_norm": captured,
    }
    return Superposition(basis, c, idx, meta)


# the largest tail probability a projected packet may have beyond the walls
MAX_LEAK = 1e-3


def project_gaussian(basis: EigenBasis, packet: WavepacketSpec,
                     eta: float = 1e-3) -> Superposition:
    """Expand a Gaussian pulse over the basis and truncate at relative
    threshold eta, then renormalize the surviving coefficients.

    The packet must be essentially contained in the well: its tail
    probability beyond the walls (at most MAX_LEAK) bounds the
    projection error floor.
    """
    g = basis.grid
    leak = leaked_norm(packet, g)
    if leak > MAX_LEAK:
        raise ValueError(
            f"packet leaks outside the well: tail probability {leak:.3e} "
            f"exceeds {MAX_LEAK:.1e}"
        )
    sp = project_field(basis, gaussian_values(packet, g.x), eta)
    sp.meta["packet"] = {"center": packet.center, "momentum": packet.momentum,
                         "width": packet.width}
    return sp


def cap_modes(sp: Superposition, max_index: int) -> Superposition:
    """Drop modes above a 1-based index cap and renormalize.

    Pins a projected pulse to an exact mode budget; the dropped probability
    is recorded so the caller can verify it was marginal.
    """
    first = sp.basis.first
    keep = first + sp.indices < max_index
    if not keep.any():
        raise ValueError(f"no modes at or below index {max_index}")
    idx = sp.indices[keep]
    c = sp.coeffs[keep]
    kept = float(np.sum(np.abs(c) ** 2))
    meta = dict(sp.meta)
    meta["mode_cap"] = max_index
    meta["cap_dropped_norm"] = 1.0 - kept
    meta["truncation_index"] = first + int(idx.max()) + 1
    return Superposition(sp.basis, c / math.sqrt(kept), idx, meta)
