"""Fluid kinematics: 1D streamlines as probability quantile curves in
(x, t), equal-probability seeding, 2D loop integration, node detection
with Newton refinement, and 2D vortex radial analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import EPS_NODE, EnergyDecomposition
from .grids import Grid1D, ScalarField, write_columns, write_json
from .states import Superposition, evaluate_at, evaluate_at_2d

# integration pauses when rho drops under this multiple of the node floor
NODE_PAUSE_FACTOR = 10.0
# refined node events must reach this amplitude residual (relative)
NODE_RESIDUAL = 1e-8
# node candidates are lattice minima of rho under this fraction of its maximum
NODE_RHO_REL_TOL = 1e-3


# ------------------------------------------------------------------- types


@dataclass
class Streamline:
    """One fluid trajectory x(t), tagged by the probability quantile it
    carries. flagged marks an early pause where the trajectory entered a
    node-masked neighborhood (velocities diverge there)."""

    seed_quantile: float
    t: np.ndarray
    x: np.ndarray
    flagged: bool = False
    t_flag: float | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        if self.t.shape != self.x.shape:
            raise ValueError("time and position arrays differ in length")
        if self.t.size >= 2 and not (np.diff(self.t) > 0).all():
            raise ValueError("sample times not strictly increasing")


@dataclass
class NodeEvent:
    """A zero of the wavefunction. Isolated events carry Newton-refined
    space-time coordinates; degenerate marks a node persisting in time
    (stationary node line), where the space-time Newton system is singular.
    x_star is a position in 1D and an (x, y) pair in 2D."""

    t_star: float
    x_star: object
    refined: bool
    degenerate: bool = False
    residual: float = 0.0


@dataclass
class VortexProfile:
    """Angular averages of Q, K_a and |v_a| on radial bins around a vortex
    core, with a power-law fit K_a ~ (fit_Z/2) * r^fit_exponent."""

    radii: np.ndarray
    Q_mean: np.ndarray
    Ka_mean: np.ndarray
    speed_mean: np.ndarray
    fit_Z: float
    fit_exponent: float


# --------------------------------------------------------------- quantiles

# values in one grid read's Re/Im stack (1 MB: 32 times on 2001 points, 2 on
# 161 x 161), a streamline's default sample times, its node scan's lattice
_STACK_VALUES = 2**17
STREAMLINE_SAMPLES = 65
NODE_SCAN_SAMPLES = 257


def _cdf(values: np.ndarray, x: np.ndarray):
    """Trapezoid CDF along the last axis, normalised to end at 1, and the
    total it was divided by."""
    steps = np.cumsum(np.diff(x) * (values[..., 1:] + values[..., :-1]) / 2.0, axis=-1)
    cdf = np.concatenate([np.zeros(steps.shape[:-1] + (1,)), steps], axis=-1)
    total = cdf[..., -1:]
    if not (np.isfinite(total) & (total > 0.0)).all():
        raise ValueError("density does not carry positive mass")
    return cdf / total, total


def _grid_rho(s: Superposition, ts):
    """(k, times, rho) for consecutive chunks ts[k:k + len(times)] whose Re/Im
    stack holds at most _STACK_VALUES values: rho = |Psi|^2 on the grid, one
    grid-shaped row per time.  Every |Psi|^2 lattice of this module comes from here."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    p = s.plan
    V = s.basis.states[s.indices].reshape(s.indices.size, -1)  # real modes
    chunk = max(1, _STACK_VALUES // (2 * V.shape[1]))
    for k in range(0, ts.size, chunk):
        tc = ts[k:k + chunk]
        w = p.coeffs * np.exp(-1j * np.multiply.outer(tc, p.energies))
        # Re and Im stacked into one real matmul: on NumPy 2.4 a complex
        # product with the real modes runs 100x slower at one to four rows
        parts = np.concatenate([w.real, w.imag]) @ V
        rho = parts[:tc.size] ** 2 + parts[tc.size:] ** 2
        yield k, tc, rho.reshape(tc.shape + s.grid.shape)


def _rho_at(s: Superposition, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """|Psi|^2 at points x paired with times t of the same shape."""
    psi = evaluate_at(s, x.ravel(), t.ravel())[0]
    return (psi.real**2 + psi.imag**2).reshape(x.shape)


def _cdf_at(g: Grid1D, cdf, rho, total, x, r):
    """CDF at off-grid x, one row per CDF row: the grid CDF at the left
    node x_i of x's cell plus the trapezoid over [x_i, x] with r = rho(x);
    and i."""
    i = np.minimum(((x - g.x_min) / g.h).astype(int), g.n - 2)
    row = np.arange(x.shape[0])[:, None]
    return cdf[row, i] + (x - g.x[i]) * (rho[row, i] + r) / (2.0 * total), i


def _quantile_curves(s: Superposition, qs, ts):
    """x_q(t) = CDF^-1(q, t) for each quantile q (columns) at each time t
    (rows), and rho there.  Each time's CDF serves every quantile: a
    piecewise-linear grid inverse, then one Newton step on _cdf_at with
    dCDF/dx = rho(x), kept inside the cell and skipped under the node
    floor."""
    g = s.grid
    qs = np.asarray(qs, dtype=float)
    X, R = [], []
    for _, tc, rho in _grid_rho(s, ts):
        cdf, total = _cdf(rho, g.x)
        x = np.stack([np.interp(qs, row, g.x) for row in cdf])
        tt = np.repeat(tc[:, None], qs.size, axis=1)
        r = _rho_at(s, x, tt)
        c, i = _cdf_at(g, cdf, rho, total, x, r)
        live = r > NODE_PAUSE_FACTOR * EPS_NODE * rho.max(axis=1, keepdims=True)
        x = np.where(live, x - (c - qs) * total / np.where(live, r, 1.0), x)
        X.append(np.clip(x, g.x[i], g.x[i + 1]))
        R.append(_rho_at(s, X[-1], tt))
    return np.concatenate(X), np.concatenate(R)


def seed_quantiles(rho0: ScalarField, m: int) -> np.ndarray:
    """Positions x_i with CDF(x_i) = i/(m+1), i = 1..m, splitting the
    fluid into m+1 equal-probability parcels."""
    if m < 1:
        raise ValueError("streamline count must be at least 1")
    if rho0.grid.ndim != 1:
        raise ValueError("seeding is defined on 1D densities")
    cdf, _ = _cdf(rho0.values, rho0.grid.x)
    return np.interp(np.arange(1, m + 1) / (m + 1.0), cdf, rho0.grid.x)


def cumulative_probability(s: Superposition, x: float, t: float) -> float:
    """CDF of |Psi(., t)|^2 at x, the one _quantile_curves inverts."""
    g = s.grid
    (_, tc, rho), = _grid_rho(s, [float(t)])
    cdf, total = _cdf(rho, g.x)
    xs = np.array([[min(max(float(x), g.x_min), g.x_max)]])
    return float(_cdf_at(g, cdf, rho, total, xs, _rho_at(s, xs, tc[:, None]))[0][0, 0])


# ------------------------------------------------------------- streamlines


def _first_dip(s: Superposition, q: float, lattice, rho_lat, floor: float,
               rho_ref: float):
    """Earliest time where rho along x_q(t) falls under the pause floor:
    the first lattice sample under it, unless an earlier sampled local
    minimum under 1e-3 rho_ref refines to below it (a node dip can be far
    narrower than the lattice step)."""
    below = np.flatnonzero(rho_lat < floor)
    first = below[0] if below.size else rho_lat.size
    r = rho_lat[1:-1]
    cand = 1 + np.flatnonzero((r < 1e-3 * rho_ref) & (r <= rho_lat[:-2]) & (r <= rho_lat[2:]))
    for i in cand[cand < first]:
        # imported here: scipy.optimize adds about 0.25 s to import, and
        # only a dip candidate needs it
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(lambda t: _quantile_curves(s, [q], [t])[1][0, 0],
                              bounds=(lattice[i - 1], lattice[i + 1]),
                              method="bounded", options={"xatol": 1e-13})
        if res.fun < floor:
            return float(res.x)
    return float(lattice[first]) if below.size else None


def _quantile_lines(s: Superposition, t_span, t_eval, qs=None, x0=None) -> list:
    """Streamlines x_q(t) for the quantiles qs, or for the quantiles of the
    starts x0 at t_span[0]; each is cut at its first node dip."""
    g = s.grid
    if g.ndim != 1:
        raise ValueError("streamline integration is 1D")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("time span must be increasing")
    ts = np.asarray(np.linspace(t0, t1, STREAMLINE_SAMPLES) if t_eval is None else t_eval,
                    dtype=float)
    if ts.ndim != 1 or ts.size == 0 or ts.min() < t0 or ts.max() > t1:
        raise ValueError("sample times lie outside the time span")
    (_, _, rho0), = _grid_rho(s, [t0])
    rho_ref = float(rho0.max())
    x0 = _quantile_curves(s, qs, [t0])[0][0] if x0 is None else np.asarray(x0, float)
    if (not ((g.x_min + 2 * g.h <= x0) & (x0 <= g.x_max - 2 * g.h)).all()
            or (_rho_at(s, x0, np.full(x0.shape, t0)) < EPS_NODE * rho_ref).any()):
        raise ValueError("streamline start lies in a masked region")
    if qs is None:
        qs = [cumulative_probability(s, x, t0) for x in x0]
    floor = NODE_PAUSE_FACTOR * EPS_NODE * rho_ref
    X, _ = _quantile_curves(s, qs, ts)
    lattice = np.linspace(t0, t1, NODE_SCAN_SAMPLES)
    _, R = _quantile_curves(s, qs, lattice)
    lines = []
    for j, q in enumerate(qs):
        t_flag = _first_dip(s, q, lattice, R[:, j], floor, rho_ref)
        keep = ts <= (t1 if t_flag is None else t_flag)
        lines.append(Streamline(float(q), ts[keep], X[keep, j], t_flag is not None, t_flag))
    return lines


def integrate_streamline(s: Superposition, x0: float, t_span, t_eval=None) -> Streamline:
    """The streamline through x0 at t_span[0]: probability is conserved and
    1D trajectories never cross, so the fluid keeps its quantile
    q = CDF(x0, t0) and follows x_q(t) = CDF^-1(q, t), sampled at t_eval or
    at STREAMLINE_SAMPLES even steps.  The line stops, flagged, at the first
    time rho(x_q(t), t) falls under NODE_PAUSE_FACTOR * EPS_NODE *
    max rho(., t0), where v_a diverges."""
    line, = _quantile_lines(s, t_span, t_eval, x0=[float(x0)])
    return line


def streamline_bundle(s: Superposition, m: int, t_span, t_eval=None) -> list:
    """m streamlines at the quantiles i/(m+1), i = 1..m, ordered by seed
    quantile, each CDF computed once for all of them; see
    integrate_streamline."""
    if m < 1:
        raise ValueError("streamline count must be at least 1")
    return _quantile_lines(s, t_span, t_eval, qs=np.arange(1, m + 1) / (m + 1.0))


@dataclass
class Loop2D:
    """A 2D fluid trajectory (x(t), y(t)); for stationary vortices these
    are closed loops around the core."""

    seed_quantile: float
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.t.size >= 2 and not (np.diff(self.t) > 0).all():
            raise ValueError("sample times not strictly increasing")


# Dormand-Prince 5(4) as in scipy's RK45: nodes, stage weights, 5th-order
# weights, error weights (7 stages, the last at the step's end) and the
# 4th-order dense-output matrix
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
# step-size control: safety factor and the bounds of one step's change
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
# loop integration tolerance: rtol = atol
LOOP_TOL = 1e-8


def _row(coeffs):
    """A tableau row as its coefficients, a (m, 1, 1) column over the stage
    axis, and the positions of the nonzero ones."""
    c = np.asarray(coeffs, dtype=float)
    return c.reshape(-1, 1, 1), np.flatnonzero(c).tolist()


_DP_ROWS = [_row(a) for a in _DP_A[1:]]
_DP_B_ROW, _DP_E_ROW = _row(_DP_B), _row(_DP_E)
_DP_C_COL = np.array(_DP_C[1:])[:, None]


def _combine(row, K):
    """sum_j c_j K[j] over the nonzero c_j of a tableau row, term by term in
    order: every product from one multiply over the stage axis of K, then
    one elementwise add per term, so each loop's sums are the same in any
    batch.  The sum shares no memory with K; callers finish it in place."""
    c, nonzero = row
    terms = c * K[:len(c)]
    total = terms[nonzero[0]]
    for j in nonzero[1:]:
        total += terms[j]
    return total


def _rms(a, b):
    # RMS norm of the pairs (a, b)
    return np.sqrt(a * a + b * b) / math.sqrt(2.0)


def integrate_loop_2d(s: Superposition, starts, t_span, t_eval=None, seed_quantiles=None,
                      diagnostics: dict | None = None) -> list:
    """Integrate (dx/dt, dy/dt) = v_a in a 2D state from each of the (L, 2)
    starting points, all loops at once; returns L Loop2D tagged with
    seed_quantiles (NaN by default).

    A lockstep Dormand-Prince 5(4) stepper with scipy RK45's tableau, error
    estimate and step control (rtol = atol = LOOP_TOL, max_step = span / 64,
    first step from the Hairer-Norsett-Wanner estimate): each stage makes
    one paired evaluate_at_2d call for every live loop, and each loop keeps
    its own step size and accept/reject decision.  Stage sums run
    elementwise in a fixed order, so a loop comes out bit for bit the same
    alone or in a batch.  Samples are the 4th-order dense output at t_eval,
    or the accepted step ends when t_eval is None.  Positions clip to the
    box in the velocity and in the output; rho is floored at
    NODE_PAUSE_FACTOR * EPS_NODE * max rho(., t0).

    The live loops' state is held compact, one column per loop: it is
    gathered again only when a loop finishes, and a round that accepts
    every step takes its new state without a scatter.

    A dict passed as diagnostics receives the work counts: accepted_steps
    and rejected_steps per loop and evaluator_calls (batched calls).
    """
    g2 = s.grid
    if g2.ndim != 2:
        raise ValueError("loop integration needs a 2D state")
    gx, gy = g2.grid_x, g2.grid_y
    p0 = np.array(starts, dtype=float).reshape(-1, 2)
    L = p0.shape[0]
    qs = np.full(L, np.nan) if seed_quantiles is None else np.asarray(seed_quantiles, float)
    if qs.shape != (L,):
        raise ValueError("one seed quantile per starting point")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("time span must be increasing")
    te = None if t_eval is None else np.asarray(t_eval, dtype=float)
    if te is not None and (te.ndim != 1 or te.size == 0 or te.min() < t0 or te.max() > t1):
        raise ValueError("sample times lie outside the time span")
    if L == 0:
        return []
    max_step = (t1 - t0) / 64.0
    (_, _, rho0), = _grid_rho(s, [t0])
    floor = NODE_PAUSE_FACTOR * EPS_NODE * float(rho0.max())
    lo, hi = np.array([[gx.x_min], [gy.x_min]]), np.array([[gx.x_max], [gy.x_max]])
    calls = 0

    def velocity(t, y, out=None):
        # v_a = Im(conj(psi) grad psi) / rho at the columns of y, paired with t
        nonlocal calls
        calls += 1
        p = np.minimum(np.maximum(y, lo), hi)
        v = evaluate_at_2d(s, p[0], p[1], t)
        psi = v[0]
        rho = np.maximum(psi.real**2 + psi.imag**2, floor)
        return np.divide((psi.conjugate() * v[1:]).imag, rho, out=out)

    with np.errstate(divide="ignore"):  # err_norm**-0.2 is inf at a zero error
        # first step: scipy's select_initial_step, one batched probe
        t = np.full(L, t0)
        y = p0.T.copy()
        f = velocity(t, y)
        scale = LOOP_TOL + np.abs(y) * LOOP_TOL
        d0 = _rms(*(y / scale))
        d1 = _rms(*(f / scale))
        h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), t1 - t0)
        d2 = _rms(*((velocity(t + h0, y + h0 * f) - f) / scale)) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** 0.2)
        h = np.minimum(np.minimum(100 * h0, h1), min(t1 - t0, max_step))

        # the live loops: their indices, t, y, f = v(t, y), next step size,
        # and which of them retry a rejected step (None: none)
        live, retry = np.arange(L), None
        rejected = np.zeros(L, dtype=int)
        steps = []  # (loop indices, t_old, t_new, y_old, y_new, stages (7, 2, n))
        while live.size:
            min_step = 10.0 * np.abs(np.nextafter(t, np.inf) - t)
            if retry is None:
                h = np.minimum(np.maximum(h, min_step), max_step)
            else:
                # a retried step under min_step (or NaN) underflows
                under = retry & ~(h >= min_step)
                if under.any():
                    i = np.argmax(under)
                    raise RuntimeError(f"loop integration failed: step size underflow at "
                                       f"t = {t[i]!r} on the loop from {tuple(p0[live[i]])}")
                h = np.where(retry, h, np.minimum(np.maximum(h, min_step), max_step))
            t_new = np.minimum(t + h, t1)
            h = t_new - t
            ts = t + _DP_C_COL * h
            K = np.empty((7,) + y.shape)
            K[0] = f
            for j, row in enumerate(_DP_ROWS):
                yj = _combine(row, K)
                yj *= h
                yj += y
                velocity(ts[j], yj, out=K[j + 1])
            y_new = _combine(_DP_B_ROW, K)
            y_new *= h
            y_new += y
            velocity(t_new, y_new, out=K[6])
            scale = np.maximum(np.abs(y), np.abs(y_new))
            scale *= LOOP_TOL
            scale += LOOP_TOL
            err = _combine(_DP_E_ROW, K)
            err *= h
            err /= scale
            err_norm = _rms(*err)
            ok = err_norm < 1.0
            factor = _SAFETY * err_norm**-0.2
            grow = np.minimum(_MAX_FACTOR if retry is None else np.where(retry, 1.0, _MAX_FACTOR),
                              factor)
            if all(ok.tolist()):
                steps.append((live, t, t_new, y, y_new, K))
                t, y, f, retry = t_new, y_new, K[6], None
                h = h * grow
            else:
                # fmax: a NaN error norm shrinks the step until it underflows
                h = h * np.where(ok, grow, np.fmax(_MIN_FACTOR, factor))
                if ok.any():
                    steps.append((live[ok], t[ok], t_new[ok], y[:, ok], y_new[:, ok], K[..., ok]))
                rejected[live[~ok]] += 1
                t, y, f, retry = (np.where(ok, t_new, t), np.where(ok, y_new, y),
                                  np.where(ok, K[6], f), ~ok)
            running = t < t1
            if not all(running.tolist()):
                live, t, h = live[running], t[running], h[running]
                y, f = y[:, running], f[:, running]
                retry = None if retry is None else retry[running]

    # every accepted step, the loop axis last
    idx, t_old, t_new, y_old, y_new, K = (np.concatenate(col, axis=-1) for col in zip(*steps))
    if diagnostics is not None:
        diagnostics.update(accepted_steps=np.bincount(idx, minlength=L).tolist(),
                           rejected_steps=rejected.tolist(), evaluator_calls=calls)
    # dense-output coefficients of every step, four (2, steps) arrays
    Q = [_combine(_row(_DP_P[:, j]), K) for j in range(4)]
    loops = []
    for j in range(L):
        sel = idx == j
        if te is None:
            ts = np.concatenate([[t0], t_new[sel]])
            ys = np.concatenate([p0[j][:, None], y_new[:, sel]], axis=1)
        else:
            # the step (t_old, t_new] holding each sample, t0 in the first
            k = np.searchsorted(t_new[sel], te, side="left")
            to, hk = t_old[sel][k], (t_new[sel] - t_old[sel])[k]
            Qk = [q[:, sel][:, k] for q in Q]
            x = (te - to) / hk
            poly = Qk[0] * x + Qk[1] * (x * x) + Qk[2] * (x * x * x) + Qk[3] * (x * x * x * x)
            ys = y_old[:, sel][:, k] + hk * poly
            ts = te
        loops.append(Loop2D(float(qs[j]), ts, np.clip(ys[0], gx.x_min, gx.x_max),
                            np.clip(ys[1], gy.x_min, gy.x_max)))
    return loops


def loop_seeds_on_axis(s: Superposition, m: int, axis_x: float) -> np.ndarray:
    """Seed heights on the vertical line x = axis_x at equal-CDF spacing of
    the 1D restriction rho(axis_x, y)."""
    g2 = s.grid
    gx, gy = g2.grid_x, g2.grid_y
    (_, _, rho), = _grid_rho(s, [0.0])
    i = int(round((axis_x - gx.x_min) / gx.h))
    i = min(max(i, 0), gx.n - 1)
    return seed_quantiles(ScalarField(gy, rho[0, i]), m)


# ------------------------------------------------------------- node events


def _local_minima_2d(R2: np.ndarray, threshold):
    """Indices (*lead, i, j) of interior strict-in-i local minima below
    threshold over the last two axes; the j comparison carries relative slack
    so stationary node lines (flat in t up to rounding) register at every slice."""
    c = R2[..., 1:-1, 1:-1]
    keep = (
        (c < threshold)
        & (c < R2[..., :-2, 1:-1])
        & (c < R2[..., 2:, 1:-1])
        & (c <= R2[..., 1:-1, :-2] * (1.0 + 1e-9))
        & (c <= R2[..., 1:-1, 2:] * (1.0 + 1e-9))
    )
    *lead, ii, jj = np.nonzero(keep)
    return (*lead, ii + 1, jj + 1)


NEWTON_OK, NEWTON_SINGULAR, NEWTON_OUT_OF_BOUNDS = 0, 1, 2
# Newton steps a node candidate may take
NEWTON_STEPS = 30


@dataclass
class NewtonResult:
    """Per-candidate outcome of the node Newton: final (a, b), |psi| there
    (NaN on failure), a NEWTON_* status and the steps taken."""

    a: np.ndarray
    b: np.ndarray
    amp: np.ndarray
    status: np.ndarray
    steps: np.ndarray


def _newton_node(f, a, b, bounds, paired=()) -> NewtonResult:
    """Newton on (Re psi, Im psi) = (0, 0) in two real unknowns (a, b), for
    arrays of starting points iterated together; f(a, b, *paired) returns
    (psi, dpsi/da, dpsi/db) paired elementwise with its arguments, paired
    holding fixed per-candidate arrays (a slice time).  Each candidate
    stops when both step components fall under 1e-14 or after NEWTON_STEPS
    steps, and fails when its Jacobian turns singular or an iterate leaves
    bounds = ((a_lo, a_hi), (b_lo, b_hi)).  Only live candidates are
    evaluated, so f runs at most NEWTON_STEPS + 1 times."""
    (alo, ahi), (blo, bhi) = bounds
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    status = np.full(a.shape, NEWTON_OK)
    taken = np.zeros(a.shape, dtype=int)
    live = np.arange(a.size)
    for _ in range(NEWTON_STEPS):
        if live.size == 0:
            break
        psi, da, db = f(a[live], b[live], *(p[live] for p in paired))
        scale = np.maximum(np.hypot(da.real, da.imag), np.hypot(db.real, db.imag))
        det = da.real * db.imag - db.real * da.imag
        singular = ~np.isfinite(det) | (np.abs(det) <= 1e-12 * scale**2)
        status[live[singular]] = NEWTON_SINGULAR
        go = ~singular
        live, psi, da, db, det = live[go], psi[go], da[go], db[go], det[go]
        # solve J [step_a, step_b]^T = F with J = [[Re da, Re db], [Im da, Im db]]
        step_a = (psi.real * db.imag - psi.imag * db.real) / det
        step_b = (psi.imag * da.real - psi.real * da.imag) / det
        a[live] -= step_a
        b[live] -= step_b
        taken[live] += 1
        al, bl = a[live], b[live]
        out = ~((alo <= al) & (al <= ahi) & (blo <= bl) & (bl <= bhi))
        status[live[out]] = NEWTON_OUT_OF_BOUNDS
        done = (np.abs(step_a) < 1e-14) & (np.abs(step_b) < 1e-14)
        live = live[~out & ~done]
    amp = np.full(a.shape, np.nan)
    ok = np.flatnonzero(status == NEWTON_OK)
    if ok.size:
        # abs(complex) per point: np.abs can differ from it in the last bit
        amp[ok] = [abs(complex(v)) for v in f(a[ok], b[ok], *(p[ok] for p in paired))[0]]
    return NewtonResult(a, b, amp, status, taken)


def _node_diagnostics(status, steps, refined) -> dict:
    return {
        "candidates": int(status.size),
        "refined": int(np.count_nonzero(refined)),
        "singular": int(np.count_nonzero(status == NEWTON_SINGULAR)),
        "out_of_bounds": int(np.count_nonzero(status == NEWTON_OUT_OF_BOUNDS)),
        "newton_iterations_max": int(steps.max(initial=0)),
    }


def _cluster(raw, dt_lat: float, space_tol: float, window_span: float):
    """Union events within (space_tol, 2 dt_lat) of each other; a cluster
    spanning a sizable fraction of the window is a persistent node line.
    Pairs are found by a sweep over the events sorted by time."""
    n = len(raw)
    parent = list(range(n))
    # positions as coordinate tuples: (x,) in 1D, (x, y) in 2D
    pos = [p if isinstance(p, tuple) else (p,) for _, p, _, _ in raw]

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    order = sorted(range(n), key=lambda a: raw[a][0])
    for k, a in enumerate(order):
        for b in order[k + 1:]:
            if raw[b][0] - raw[a][0] > 2 * dt_lat:
                break
            if math.dist(pos[a], pos[b]) <= space_tol:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra

    groups = {}
    for a in range(n):
        groups.setdefault(find(a), []).append(a)
    keyed = []
    for members in groups.values():
        ts = [raw[m][0] for m in members]
        extent = max(ts) - min(ts)
        degenerate = extent > 0.25 * window_span
        best = min(members, key=lambda m: raw[m][3])
        refined = any(raw[m][2] for m in members)
        if refined:
            best = min((m for m in members if raw[m][2]), key=lambda m: raw[m][3])
        t_star = float(0.5 * (max(ts) + min(ts)) if degenerate else raw[best][0])
        event = NodeEvent(t_star, raw[best][1], refined, degenerate, float(raw[best][3]))
        keyed.append(((t_star, pos[best][0]), event))
    keyed.sort(key=lambda ke: ke[0])
    return [e for _, e in keyed]


def find_nodes(s: Superposition, t_window, nt: int = 257,
               diagnostics: dict | None = None) -> list:
    """Locate wavefunction zeros inside a time window.

    The search runs on lattice planes of |Psi|^2 at nt lattice times (at
    least 9 in 1D, 2 to 33 in 2D): one (x, t) plane in 1D, one (x, y)
    plane per lattice time in 2D.  Local minima of every plane
    under NODE_RHO_REL_TOL of its maximum are the candidates, and one Newton
    pass on (Re Psi, Im Psi) = (0, 0) moves each in its plane's two
    coordinates; duplicates within (2h, 2 dt) merge, h the largest axis
    spacing.  A singular Newton system (stationary node line) is reported
    unrefined at lattice coordinates and a cluster persisting in t is
    marked degenerate.

    A dict passed as diagnostics receives the search's work counts:
    candidates, refined, singular, out_of_bounds, newton_iterations_max and
    events_outside_window (in 1D, Newton may move an event up to five
    lattice steps past the time window).
    """
    t0, t1 = float(t_window[0]), float(t_window[1])
    if not t1 > t0:
        raise ValueError("time window must be increasing")
    g = s.grid
    # per dimension: lattice times, the planes' (a, b) axes, Newton bounds
    # on (a, b), and psi with its (a, b) derivatives given the plane time
    ts = np.linspace(t0, t1, max(int(nt), 9) if g.ndim == 1 else max(2, min(int(nt), 33)))
    dt_lat = ts[1] - ts[0]
    if g.ndim == 1:
        axes = (g.x, ts)
        bounds = ((g.x_min - 5 * g.h, g.x_max + 5 * g.h), (t0 - 5 * dt_lat, t1 + 5 * dt_lat))
        psi = lambda x, t, _: evaluate_at(s, x, t)
    else:
        axes = tuple(ax.x for ax in g.axes)
        bounds = tuple((ax.x_min, ax.x_max) for ax in g.axes)
        psi = lambda x, y, t: evaluate_at_2d(s, x, y, t)
    R2 = np.empty(ts.shape + g.shape)  # in place: a chunk list would raise peak RSS
    for k, tc, rho in _grid_rho(s, ts):
        R2[k:k + tc.size] = rho
    planes = R2.T[None] if g.ndim == 1 else R2  # (plane, a, b); a view
    scale = planes.max(axis=(1, 2))
    amp_scale = np.sqrt(scale)
    # strict in a, ties in b: a stationary node line registers at every time
    kk, ia, ib = _local_minima_2d(planes, NODE_RHO_REL_TOL * scale[:, None, None])
    # paired times: each candidate takes the dot product a one-point call would
    res = _newton_node(psi, axes[0][ia], axes[1][ib], bounds, paired=(ts[kk],))
    refined = res.amp < NODE_RESIDUAL * amp_scale[kk]
    a = np.where(refined, res.a, axes[0][ia])
    b = np.where(refined, res.b, axes[1][ib])
    resid = np.where(refined, res.amp / amp_scale[kk], np.sqrt(planes[kk, ia, ib] / scale[kk]))
    # (plane, a, b) back to (t, x): (b, a) in 1D, (plane time, (a, b)) in 2D
    if g.ndim == 1:
        t_ev, x_ev = b.tolist(), a.tolist()
    else:
        t_ev, x_ev = ts[kk].tolist(), list(zip(a.tolist(), b.tolist()))
    raw = list(zip(t_ev, x_ev, refined.tolist(), resid.tolist()))
    events = _cluster(raw, dt_lat, 2 * max(ax.h for ax in g.axes), t1 - t0)
    if diagnostics is not None:
        diagnostics.update(_node_diagnostics(res.status, res.steps, refined))
        diagnostics["events_outside_window"] = sum(
            1 for e in events if not t0 <= e.t_star <= t1)
    return events


# ---------------------------------------------------------------- vortices

# points on a circulation circle
CIRCULATION_SAMPLES = 720


def vortex_profile(d: EnergyDecomposition, center, r_max: float,
                   n_bins: int) -> VortexProfile:
    """Angular averages of the 2D ledger d's Q, K_a and |v_a| on radial bins
    in [2h, r_max] around a vortex core, with a least-squares power-law fit
    of K_a."""
    g2 = d.grid
    if g2.ndim != 2:
        raise ValueError("vortex profiles are 2D")
    gx, gy = g2.grid_x, g2.grid_y
    cx, cy = float(center[0]), float(center[1])
    wall = min(cx - gx.x_min, gx.x_max - cx, cy - gy.x_min, gy.x_max - cy)
    if r_max > wall:
        raise ValueError("profile radius reaches past the domain boundary")
    h = max(gx.h, gy.h)
    if n_bins < 2 or r_max <= 2 * h:
        raise ValueError("profile needs r_max > 2h and at least 2 bins")

    X, Y = g2.mesh()
    r = np.hypot(X - cx, Y - cy)
    speed = np.sqrt(2.0 * np.maximum(d.K_a, 0.0))

    edges = np.linspace(2 * h, r_max, n_bins + 1)
    radii, q_m, k_m, s_m = [], [], [], []
    for b in range(n_bins):
        sel = (r >= edges[b]) & (r < edges[b + 1]) & d.valid
        if not sel.any():
            continue
        # bin abscissa 1/sqrt(mean(1/r^2)): an ideal 1/r^2 field then lands
        # exactly on its power law whatever the bin width, so the fit is
        # free of bin-attribution bias
        radii.append(1.0 / math.sqrt(float(np.mean(r[sel] ** -2.0))))
        q_m.append(float(d.Q[sel].mean()))
        k_m.append(float(d.K_a[sel].mean()))
        s_m.append(float(speed[sel].mean()))
    radii = np.asarray(radii)
    k_arr = np.asarray(k_m)
    if radii.size < 2 or (k_arr <= 0).any():
        raise ValueError("too few populated bins for a power-law fit")
    slope, intercept = np.polyfit(np.log(radii), np.log(k_arr), 1)
    return VortexProfile(radii, np.asarray(q_m), k_arr, np.asarray(s_m),
                         fit_Z=2.0 * math.exp(intercept), fit_exponent=float(slope))


def circulation(s: Superposition, center, radius: float, t: float = 0.0,
                orientation: int = 1) -> float:
    """Line integral of v_a = grad S around a circle: the summed wrapped
    phase increments along the loop at CIRCULATION_SAMPLES even angles.
    orientation +1 is counterclockwise."""
    cx, cy = float(center[0]), float(center[1])
    ang = orientation * np.linspace(0.0, 2 * np.pi, CIRCULATION_SAMPLES, endpoint=False)
    xs = cx + radius * np.cos(ang)
    ys = cy + radius * np.sin(ang)
    psi = evaluate_at_2d(s, xs, ys, t)[0]
    amps = np.abs(psi)
    if amps.min() < 1e-12 * amps.max():
        raise ValueError("loop passes through a node")
    theta = np.angle(psi)
    d = np.diff(np.append(theta, theta[0]))
    d = (d + np.pi) % (2 * np.pi) - np.pi
    return float(d.sum())


# ----------------------------------------------------------------- export


def _curves_to_csv(curves, names, path):
    # seed_q repeated along each curve, then its named samples; curves stacked
    cols = [[np.full(c.t.size, c.seed_quantile) for c in curves]]
    cols += [[getattr(c, n) for c in curves] for n in names]
    write_columns(path, ("seed_q",) + names,
                  [np.concatenate([np.empty(0)] + col) for col in cols])


def streamlines_to_csv(lines, path):
    _curves_to_csv(lines, ("t", "x"), path)


def loops_to_csv(loops, path):
    _curves_to_csv(loops, ("t", "x", "y"), path)


def node_events_to_json(events) -> list:
    docs = []
    for e in events:
        x = e.x_star if np.ndim(e.x_star) == 0 else list(e.x_star)
        docs.append({
            "t": e.t_star,
            "x": x,
            "refined": bool(e.refined),
            "degenerate": bool(e.degenerate),
            "residual": e.residual,
        })
    return docs


def save_node_events(events, path):
    write_json(path, node_events_to_json(events))


def vortex_profile_to_csv(p: VortexProfile, path):
    write_columns(path, ("r", "Q", "K_a", "speed"),
                  (p.radii, p.Q_mean, p.Ka_mean, p.speed_mean))
