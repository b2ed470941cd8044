"""Band-limited superpositions: exact time evolution, Gaussian projection,
and off-grid analytic evaluation (used by node refinement and streamlines).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grids import ComplexField, Grid1D, quadrature
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

    Frozen, so the evaluation plan built at first use stays valid."""

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
    def plan(self) -> "EvaluationPlan":
        """The state's evaluation plan, built at its first evaluation."""
        return EvaluationPlan(self)

    @property
    def energies(self) -> np.ndarray:
        return self.plan.energies

    @property
    def grid(self):
        return self.basis.grid


class EvaluationPlan:
    """What every evaluation of one superposition reuses, built once: the
    selected energies E, the phase rates -i E, the weights -i E c of dPsi/dt
    and the mode tables of the selected modes (spectral.ModeTables, which
    takes the sine constants of the hard-well and 2D-box bases once).  It
    holds O(K) values and no copy of a mode table; the arrays it computes
    are read-only."""

    def __init__(self, s: Superposition):
        self.coeffs = s.coeffs
        self.energies = s.basis.energies[s.indices]
        self.rates = -1j * self.energies
        self.dt_coeffs = self.rates * s.coeffs
        for a in (self.energies, self.rates, self.dt_coeffs):
            a.flags.writeable = False
        self.modes = ModeTables(s.basis, s.indices)


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


def _phases(p: EvaluationPlan, t):
    """e^{-i E t}, the mode axis last: (K,) for a scalar t, (*t.shape, K)
    for an array t."""
    if np.ndim(t) == 0:
        return np.exp(p.rates * t)
    # -i (t E), not t (-i E): at t = 0 their phases differ in the sign of a zero
    return np.exp(-1j * np.multiply(np.asarray(t, dtype=float)[..., None], p.energies))


def evaluate(s: Superposition, t: float) -> ComplexField:
    """Psi(x, t) = sum c_n psi_n(x) e^{-i E_n t} on the basis grid."""
    p = s.plan
    vals = np.tensordot(p.coeffs * _phases(p, t), s.basis.states[s.indices], axes=(0, 0))
    return ComplexField(s.grid, vals)


def time_derivative(s: Superposition, t: float) -> ComplexField:
    """dPsi/dt, analytic in t (no finite differencing)."""
    p = s.plan
    vals = np.tensordot(p.dt_coeffs * _phases(p, t), s.basis.states[s.indices], axes=(0, 0))
    return ComplexField(s.grid, vals)


def band_limit(s: Superposition) -> float:
    """Largest eigen-energy carried with nonzero amplitude."""
    live = np.abs(s.coeffs) > 0
    if not live.any():
        raise ValueError("superposition has no live coefficients")
    return float(s.energies[live].max())


# ---------------------------------------------------------------- off-grid


def _off_grid(s: Superposition, coords, t, time_derivative: bool):
    """Three sums sum_k w_k m_k(x), one stacked matmul of the weights with
    the mode tables, as one (3, *shape) array: (Psi, dPsi/dx, dPsi/dt) with
    time_derivative, else Psi and its derivative along each of the two axes.

    The plan's ModeTables writes the tables straight into the real part of
    the complex matmul operand.  For one time that is modes first,
    (J, 1, K) @ (3, K, points).  For t paired with the points it is points
    first and each point takes its own dot product, (J, n, 1, K) @ (3, n,
    K, 1): the BLAS dot a one-point call makes, so paired and one-point
    calls agree bit for bit.  The matrix axes of both operands are
    C-ordered: matmul reaches BLAS only through unit-stride rows, and a
    None axis or a transposed stack there would miss it.  The weights are
    one row (J = 1), which matmul broadcasts over the three tables, or
    three rows (J = 3) when dPsi/dt is asked for.
    """
    p = s.plan
    K = p.energies.size
    coords = [np.asarray(c, dtype=float) for c in coords]
    paired = np.ndim(t) > 0
    if paired:
        shape = np.shape(t)
    else:
        shapes = {c.shape for c in coords}
        shape = coords[0].shape if len(shapes) == 1 else np.broadcast_shapes(*shapes)
    flat = [(c if c.shape == shape else np.broadcast_to(c, shape)).reshape(-1) for c in coords]
    n = flat[0].size
    op = np.zeros((3, n, K) if paired else (3, K, n), dtype=complex)
    tables = op.real.transpose(0, 2, 1) if paired else op.real
    p.modes(*flat, out=tables[:1 + len(flat)])
    ph = _phases(p, t).reshape(-1, K)
    if time_derivative:
        op[2] = op[0]
        w = np.empty((3,) + ph.shape, dtype=complex)
        np.multiply(p.coeffs, ph, out=w[0])
        w[1] = w[0]
        np.multiply(p.dt_coeffs, ph, out=w[2])
    else:
        w = np.multiply(p.coeffs, ph)[None]
    if paired:
        out = w.reshape(-1, n, 1, K) @ op.reshape(3, n, K, 1)
    else:
        out = w @ op
    return out.reshape((3,) + shape)


def evaluate_at(s: Superposition, x, t):
    """(Psi, dPsi/dx, dPsi/dt) at arbitrary position(s), analytic in t, as
    one (3, *x.shape) array.

    t is a scalar, or an array paired elementwise with x.  Mode functions
    are analytic for the hard well and harmonic bases and cubic
    interpolations of the sampled modes otherwise.
    """
    if s.grid.ndim != 1:
        raise ValueError("2D states: use evaluate_at_2d")
    return _off_grid(s, (x,), t, True)


def evaluate_at_2d(s: Superposition, x, y, t):
    """(Psi, dPsi/dx, dPsi/dy) at arbitrary 2D position(s) for the analytic
    box product-state basis, as one (3, *shape) array; t is a scalar, or an
    array paired with x, y."""
    if s.grid.ndim != 2:
        raise ValueError("1D states: use evaluate_at")
    return _off_grid(s, (x, y), t, False)


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
    (1-based); captured_norm is the probability held by the retained
    coefficients before renormalization.
    """
    g = basis.grid
    nrm = math.sqrt(float(quadrature(g, np.abs(values) ** 2).real))
    vals = values / nrm
    V = basis.states
    raw = np.array([quadrature(g, V[j] * vals) for j in range(basis.k)])
    raw[np.abs(raw) < CLAMP] = 0.0
    keep = np.abs(raw) >= eta * np.abs(raw).max()
    idx = np.nonzero(keep)[0]
    c = raw[idx]
    captured = float(np.sum(np.abs(c) ** 2))
    c = c / math.sqrt(captured)
    meta = {
        "truncation_index": int(idx.max()) + 1,
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
    keep = sp.indices < max_index
    if not keep.any():
        raise ValueError(f"no modes at or below index {max_index}")
    idx = sp.indices[keep]
    c = sp.coeffs[keep]
    kept = float(np.sum(np.abs(c) ** 2))
    meta = dict(sp.meta)
    meta["mode_cap"] = max_index
    meta["cap_dropped_norm"] = 1.0 - kept
    meta["truncation_index"] = int(idx.max()) + 1
    return Superposition(sp.basis, c / math.sqrt(kept), idx, meta)
