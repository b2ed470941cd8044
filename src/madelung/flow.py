"""Fluid kinematics: streamline integration in (x, t), equal-probability
seeding, node detection with Newton refinement, and 2D vortex radial
analysis."""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid, solve_ivp

from .energy import EPS_NODE, decompose
from .grids import Grid1D, Grid2D, ScalarField
from .states import Superposition, evaluate, evaluate_at, evaluate_at_2d

# integration pauses when rho drops under this multiple of the node floor
NODE_PAUSE_FACTOR = 10.0
# refined node events must reach this amplitude residual (relative)
NODE_RESIDUAL = 1e-8


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

    @property
    def samples(self):
        return list(zip(self.t.tolist(), self.x.tolist()))


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


# ----------------------------------------------------------------- seeding


def _normalized_cdf(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    cdf = cumulative_trapezoid(values, x, initial=0.0)
    total = cdf[-1]
    if not np.isfinite(total) or total <= 0.0:
        raise ValueError("density does not carry positive mass")
    return cdf / total


def seed_quantiles(rho0: ScalarField, m: int) -> np.ndarray:
    """Positions x_i with CDF(x_i) = i/(m+1), i = 1..m, splitting the
    fluid into m+1 equal-probability parcels."""
    if m < 1:
        raise ValueError("streamline count must be at least 1")
    if rho0.grid.ndim != 1:
        raise ValueError("seeding is defined on 1D densities")
    cdf = _normalized_cdf(rho0.values, rho0.grid.x)
    targets = np.arange(1, m + 1) / (m + 1.0)
    return np.interp(targets, cdf, rho0.grid.x)


def cumulative_probability(s: Superposition, x: float, t: float) -> float:
    """CDF of |Psi(., t)|^2 evaluated at x."""
    g = s.grid
    rho = np.abs(evaluate(s, t).values) ** 2
    cdf = _normalized_cdf(rho, g.x)
    return float(np.interp(x, g.x, cdf))


def quantile_position(s: Superposition, q: float, t: float) -> float:
    """Position x with CDF(x, t) = q, by bisection on the cumulative
    integral of |Psi(., t)|^2."""
    g = s.grid
    rho = np.abs(evaluate(s, float(t)).values) ** 2
    cdf = _normalized_cdf(rho, g.x)
    lo, hi = g.x_min, g.x_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.interp(mid, g.x, cdf) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * (g.x_max - g.x_min):
            break
    return 0.5 * (lo + hi)


# ------------------------------------------------------------- streamlines


def _density(s: Superposition, x: float, t: float) -> float:
    psi = complex(evaluate_at(s, x, t)[0])
    return psi.real**2 + psi.imag**2


def integrate_streamline(s: Superposition, x0: float, t_span, tol: float = 1e-8,
                         t_eval=None, seed_quantile: float | None = None) -> Streamline:
    """Integrate dx/dt = v_a(x, t) with adaptive Runge-Kutta (4/5 pair).

    v_a is drawn from the mode functions (analytic where available, cubic
    interpolation otherwise) and is exact in t. Integration pauses with a
    flag when the trajectory enters a node neighborhood, where the
    velocity diverges.
    """
    g = s.grid
    if g.ndim != 1:
        raise ValueError("streamline integration is 1D")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("time span must be increasing")
    x0 = float(x0)
    rho_ref = float((np.abs(evaluate(s, t0).values) ** 2).max())
    floor = NODE_PAUSE_FACTOR * EPS_NODE * rho_ref
    lo, hi = g.x_min + 2 * g.h, g.x_max - 2 * g.h
    if not (lo <= x0 <= hi) or _density(s, x0, t0) < EPS_NODE * rho_ref:
        raise ValueError("streamline start lies in a masked region")
    if seed_quantile is None:
        seed_quantile = cumulative_probability(s, x0, t0)

    # solve_ivp's solver object holds rhs in a reference cycle that lives
    # until the next full garbage collection; a weak reference keeps the
    # state and its eigenbasis out of that cycle, so they are freed as soon
    # as the caller drops them
    state = weakref.ref(s)

    def rhs(t, y):
        xx = min(max(y[0], g.x_min), g.x_max)
        psi, dpsi, _ = (complex(v) for v in evaluate_at(state(), xx, t))
        rho = psi.real**2 + psi.imag**2
        return ((psi.conjugate() * dpsi).imag / max(rho, floor),)

    def near_node(t, y):
        return _density(s, min(max(y[0], g.x_min), g.x_max), t) - floor

    near_node.terminal = True
    near_node.direction = -1.0

    sol = solve_ivp(rhs, (t0, t1), (x0,), method="RK45", rtol=tol, atol=tol,
                    t_eval=t_eval, events=near_node, max_step=(t1 - t0) / 64.0,
                    dense_output=True)
    if not sol.success and sol.status != 1:
        raise RuntimeError(f"streamline integration failed: {sol.message}")
    flagged = sol.status == 1
    reach = t1
    if flagged and sol.t_events[0].size:
        reach = float(sol.t_events[0][0])
    t_flag = reach if flagged else None

    # a node dip can be far narrower than a solver step, so the step-based
    # event may pass over it; rescan the dense solution and refine any low
    # local minimum of rho along the path down to the floor test
    dip = _first_dip(s, sol.sol, (t0, reach), rho_ref, floor, g)
    if dip is not None and (t_flag is None or dip < t_flag):
        flagged, t_flag = True, dip

    ts, xs = sol.t, np.clip(sol.y[0], g.x_min, g.x_max)
    if t_flag is not None:
        keep = ts <= t_flag
        ts, xs = ts[keep], xs[keep]
    return Streamline(float(seed_quantile), ts, xs, flagged, t_flag)


def _first_dip(s: Superposition, path, t_range, rho_ref: float, floor: float,
               g: Grid1D):
    """Earliest time where rho along the trajectory falls under the pause
    floor, located by refining scanned local minima."""
    from scipy.optimize import minimize_scalar

    t0, t1 = t_range
    if not t1 > t0:
        return None
    tt = np.linspace(t0, t1, 4097)
    xx = np.clip(path(tt)[0], g.x_min, g.x_max)
    rr = np.abs(evaluate_at(s, xx, tt)[0]) ** 2
    if rr[0] < floor:
        return float(t0)

    def rho_at(t):
        return _density(s, float(np.clip(path(t)[0], g.x_min, g.x_max)), float(t))

    inner = rr[1:-1]
    cand = np.nonzero(
        (inner < 1e-3 * rho_ref) & (inner <= rr[:-2]) & (inner <= rr[2:])
    )[0] + 1
    for i in cand:
        if rr[i] < floor:
            return float(tt[i])
        res = minimize_scalar(rho_at, bounds=(tt[i - 1], tt[i + 1]),
                              method="bounded", options={"xatol": 1e-13})
        if res.fun < floor:
            return float(res.x)
    if rr[-1] < floor:
        return float(tt[-1])
    return None


def streamline_bundle(s: Superposition, m: int, t_span, tol: float = 1e-8,
                      t_eval=None) -> list:
    """Integrate m equal-probability streamlines, ordered by seed quantile."""
    rho0 = np.abs(evaluate(s, float(t_span[0])).values) ** 2
    seeds = seed_quantiles(ScalarField(s.grid, rho0), m)
    qs = np.arange(1, m + 1) / (m + 1.0)
    return [
        integrate_streamline(s, x0, t_span, tol=tol, t_eval=t_eval, seed_quantile=q)
        for q, x0 in zip(qs, seeds)
    ]


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


def integrate_loop_2d(s: Superposition, p0, t_span, tol: float = 1e-8,
                      t_eval=None, seed_quantile: float = float("nan")) -> Loop2D:
    """Integrate (dx/dt, dy/dt) = v_a in a 2D state with adaptive
    Runge-Kutta; positions clip to the box."""
    g2 = s.grid
    if g2.ndim != 2:
        raise ValueError("loop integration needs a 2D state")
    gx, gy = g2.grid_x, g2.grid_y
    t0, t1 = float(t_span[0]), float(t_span[1])
    rho_ref = float((np.abs(evaluate(s, t0).values) ** 2).max())
    floor = NODE_PAUSE_FACTOR * EPS_NODE * rho_ref

    state = weakref.ref(s)  # kept out of the solver's cycle, as in integrate_streamline

    def rhs(t, p):
        x = min(max(p[0], gx.x_min), gx.x_max)
        y = min(max(p[1], gy.x_min), gy.x_max)
        psi, dx_, dy_ = (complex(v) for v in evaluate_at_2d(state(), x, y, t))
        rho = max(psi.real**2 + psi.imag**2, floor)
        return (psi.conjugate() * dx_).imag / rho, (psi.conjugate() * dy_).imag / rho

    sol = solve_ivp(rhs, (t0, t1), (float(p0[0]), float(p0[1])), method="RK45",
                    rtol=tol, atol=tol, t_eval=t_eval,
                    max_step=(t1 - t0) / 64.0)
    if not sol.success:
        raise RuntimeError(f"loop integration failed: {sol.message}")
    return Loop2D(float(seed_quantile), sol.t,
                  np.clip(sol.y[0], gx.x_min, gx.x_max),
                  np.clip(sol.y[1], gy.x_min, gy.x_max))


def loop_seeds_on_axis(s: Superposition, m: int, axis_x: float) -> np.ndarray:
    """Seed heights on the vertical line x = axis_x at equal-CDF spacing of
    the 1D restriction rho(axis_x, y)."""
    g2 = s.grid
    gx, gy = g2.grid_x, g2.grid_y
    vals = np.abs(evaluate(s, 0.0).values) ** 2
    i = int(round((axis_x - gx.x_min) / gx.h))
    i = min(max(i, 0), gx.n - 1)
    return seed_quantiles(ScalarField(gy, vals[i]), m)


# ------------------------------------------------------------- node events


def _local_minima_2d(R2: np.ndarray, threshold: float):
    """Indices (i, j) of interior strict-in-x local minima below threshold.
    The second-axis comparison carries relative slack so stationary node
    lines (flat in t up to rounding) register at every slice."""
    c = R2[1:-1, 1:-1]
    keep = (
        (c < threshold)
        & (c < R2[:-2, 1:-1])
        & (c < R2[2:, 1:-1])
        & (c <= R2[1:-1, :-2] * (1.0 + 1e-9))
        & (c <= R2[1:-1, 2:] * (1.0 + 1e-9))
    )
    ii, jj = np.nonzero(keep)
    return ii + 1, jj + 1


NEWTON_OK, NEWTON_SINGULAR, NEWTON_OUT_OF_BOUNDS = 0, 1, 2


@dataclass
class NewtonResult:
    """Per-candidate outcome of the node Newton: final (a, b), |psi| there
    (NaN on failure), a NEWTON_* status and the steps taken."""

    a: np.ndarray
    b: np.ndarray
    amp: np.ndarray
    status: np.ndarray
    steps: np.ndarray


def _newton_node(f, a, b, bounds, steps: int = 30) -> NewtonResult:
    """Newton on (Re psi, Im psi) = (0, 0) in two real unknowns (a, b), for
    arrays of starting points iterated together; f(a, b) returns (psi,
    dpsi/da, dpsi/db) paired elementwise with its arguments.  Each candidate
    stops when both step components fall under 1e-14 or after `steps`
    steps, and fails when its Jacobian turns singular or an iterate leaves
    bounds = ((a_lo, a_hi), (b_lo, b_hi)).  Only live candidates are
    evaluated, so f runs at most steps + 1 times."""
    (alo, ahi), (blo, bhi) = bounds
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    status = np.full(a.shape, NEWTON_OK)
    taken = np.zeros(a.shape, dtype=int)
    live = np.arange(a.size)
    for _ in range(steps):
        if live.size == 0:
            break
        psi, da, db = f(a[live], b[live])
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
        amp[ok] = [abs(complex(v)) for v in f(a[ok], b[ok])[0]]
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
            if _dist(raw[a][1], raw[b][1]) <= space_tol:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra

    groups = {}
    for a in range(n):
        groups.setdefault(find(a), []).append(raw[a])
    events = []
    for members in groups.values():
        ts = [m[0] for m in members]
        extent = max(ts) - min(ts)
        degenerate = extent > 0.25 * window_span
        best = min(members, key=lambda m: m[3])
        refined = any(m[2] for m in members)
        if refined:
            best = min((m for m in members if m[2]), key=lambda m: m[3])
        t_star = 0.5 * (max(ts) + min(ts)) if degenerate else best[0]
        events.append(NodeEvent(float(t_star), best[1], refined, degenerate,
                                float(best[3])))
    events.sort(key=lambda e: (e.t_star, _first_coord(e.x_star)))
    return events


def _dist(p, q):
    if np.ndim(p) == 0:
        return abs(p - q)
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _first_coord(p):
    return p if np.ndim(p) == 0 else p[0]


def find_nodes(s: Superposition, t_window, x_window=None, nt: int = 257,
               rho_rel_tol: float = 1e-3, diagnostics: dict | None = None) -> list:
    """Locate wavefunction zeros inside a space-time window.

    Coarse scan for local minima of |Psi|^2 on an (x, t) lattice, then
    Newton refinement on (Re Psi, Im Psi) = (0, 0) using the analytic mode
    functions; duplicates within (2h, 2 dt) merge. A singular Newton system
    (stationary node line) is reported unrefined at coarse coordinates and
    a cluster persisting in t is marked degenerate.

    A dict passed as diagnostics receives the search's work counts:
    candidates, refined, singular, out_of_bounds, newton_iterations_max and
    events_outside_window (Newton may move an event up to five lattice
    steps past the time window).
    """
    t0, t1 = float(t_window[0]), float(t_window[1])
    if not t1 > t0:
        raise ValueError("time window must be increasing")
    g = s.grid
    if g.ndim == 2:
        events, stats = _find_nodes_2d(s, (t0, t1), nt, rho_rel_tol)
    else:
        events, stats = _find_nodes_1d(s, (t0, t1), x_window, nt, rho_rel_tol)
    if diagnostics is not None:
        diagnostics.update(stats)
        diagnostics["events_outside_window"] = sum(
            1 for e in events if not t0 <= e.t_star <= t1)
    return events


def _find_nodes_1d(s: Superposition, t_window, x_window, nt: int, rho_rel_tol: float):
    t0, t1 = t_window
    g = s.grid
    if x_window is None:
        x_window = (g.x_min, g.x_max)
    xlo, xhi = float(x_window[0]), float(x_window[1])
    if xlo < g.x_min or xhi > g.x_max:
        raise ValueError("space window outside the domain")
    nt = max(int(nt), 9)
    ts = np.linspace(t0, t1, nt)
    dt_lat = ts[1] - ts[0]
    R2 = np.empty((nt, g.n))
    for j, tj in enumerate(ts):
        v = evaluate(s, float(tj)).values
        R2[j] = v.real**2 + v.imag**2
    scale = R2.max()
    amp_scale = math.sqrt(scale)
    jj, ii = _local_minima_2d(R2.T, rho_rel_tol * scale)  # strict in x, ties in t
    inside = (g.x[jj] >= xlo) & (g.x[jj] <= xhi)
    jj, ii = jj[inside], ii[inside]

    bounds = ((xlo - 5 * g.h, xhi + 5 * g.h), (t0 - 5 * dt_lat, t1 + 5 * dt_lat))
    res = _newton_node(lambda x, t: evaluate_at(s, x, t), g.x[jj], ts[ii], bounds)
    refined = res.amp < NODE_RESIDUAL * amp_scale
    raw = [
        (float(res.b[k]), float(res.a[k]), True, res.amp[k] / amp_scale) if refined[k]
        else (float(ts[i]), float(g.x[j]), False, math.sqrt(R2[i, j] / scale))
        for k, (j, i) in enumerate(zip(jj, ii))
    ]
    return (_cluster(raw, dt_lat, 2 * g.h, t1 - t0),
            _node_diagnostics(res.status, res.steps, refined))


def _find_nodes_2d(s: Superposition, t_window, nt: int, rho_rel_tol: float):
    t0, t1 = t_window
    g2 = s.grid
    gx, gy = g2.grid_x, g2.grid_y
    nt = max(2, min(int(nt), 33))
    ts = np.linspace(t0, t1, nt)
    dt_lat = ts[1] - ts[0]
    h = max(gx.h, gy.h)
    bounds = ((gx.x_min, gx.x_max), (gy.x_min, gy.x_max))
    raw, status, steps, refined = [], [], [], []
    for tj in ts:
        v = evaluate(s, float(tj)).values
        R2 = v.real**2 + v.imag**2
        scale = R2.max()
        amp_scale = math.sqrt(scale)
        ix, iy = _local_minima_2d(R2, rho_rel_tol * scale)
        # paired times: each candidate takes the dot product a one-point call would
        res = _newton_node(lambda x, y: evaluate_at_2d(s, x, y, np.full(x.shape, tj)),
                           gx.x[ix], gy.x[iy], bounds)
        ok = res.amp < NODE_RESIDUAL * amp_scale
        raw += [
            (float(tj), (float(res.a[k]), float(res.b[k])), True, res.amp[k] / amp_scale)
            if ok[k]
            else (float(tj), (float(gx.x[i]), float(gy.x[j])), False,
                  math.sqrt(R2[i, j] / scale))
            for k, (i, j) in enumerate(zip(ix, iy))
        ]
        status.append(res.status)
        steps.append(res.steps)
        refined.append(ok)
    return (_cluster(raw, dt_lat, 2 * h, t1 - t0),
            _node_diagnostics(np.concatenate(status), np.concatenate(steps),
                              np.concatenate(refined)))


# ---------------------------------------------------------------- vortices


def vortex_profile(s: Superposition, center, r_max: float, n_bins: int,
                   t: float = 0.0) -> VortexProfile:
    """Angular averages of Q, K_a and |v_a| on radial bins in [2h, r_max]
    around a vortex core, with a least-squares power-law fit of K_a."""
    g2 = s.grid
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

    d = decompose(s, t)
    X, Y = g2.mesh()
    r = np.hypot(X - cx, Y - cy)
    speed = np.sqrt(2.0 * np.maximum(d.K_a.values, 0.0))
    ok = d.Q.mask & d.K_a.mask

    edges = np.linspace(2 * h, r_max, n_bins + 1)
    radii, q_m, k_m, s_m = [], [], [], []
    for b in range(n_bins):
        sel = (r >= edges[b]) & (r < edges[b + 1]) & ok
        if not sel.any():
            continue
        # bin abscissa 1/sqrt(mean(1/r^2)): an ideal 1/r^2 field then lands
        # exactly on its power law whatever the bin width, so the fit is
        # free of bin-attribution bias
        radii.append(1.0 / math.sqrt(float(np.mean(r[sel] ** -2.0))))
        q_m.append(float(d.Q.values[sel].mean()))
        k_m.append(float(d.K_a.values[sel].mean()))
        s_m.append(float(speed[sel].mean()))
    radii = np.asarray(radii)
    k_arr = np.asarray(k_m)
    if radii.size < 2 or (k_arr <= 0).any():
        raise ValueError("too few populated bins for a power-law fit")
    slope, intercept = np.polyfit(np.log(radii), np.log(k_arr), 1)
    return VortexProfile(radii, np.asarray(q_m), k_arr, np.asarray(s_m),
                         fit_Z=2.0 * math.exp(intercept), fit_exponent=float(slope))


def circulation(s: Superposition, center, radius: float, t: float = 0.0,
                n_samples: int = 720, orientation: int = 1) -> float:
    """Line integral of v_a = grad S around a circle: the summed wrapped
    phase increments along the loop. orientation +1 is counterclockwise."""
    cx, cy = float(center[0]), float(center[1])
    ang = orientation * np.linspace(0.0, 2 * np.pi, n_samples, endpoint=False)
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


def streamlines_to_csv(lines, path):
    with open(path, "w") as fh:
        fh.write("seed_q,t,x\n")
        for ln in lines:
            for tv, xv in zip(ln.t, ln.x):
                fh.write(f"{ln.seed_quantile:.17g},{tv:.17g},{xv:.17g}\n")


def loops_to_csv(loops, path):
    with open(path, "w") as fh:
        fh.write("seed_q,t,x,y\n")
        for lp in loops:
            for tv, xv, yv in zip(lp.t, lp.x, lp.y):
                fh.write(f"{lp.seed_quantile:.17g},{tv:.17g},{xv:.17g},{yv:.17g}\n")


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
    with open(path, "w") as fh:
        json.dump(node_events_to_json(events), fh, indent=1, sort_keys=True)
        fh.write("\n")


def vortex_profile_to_csv(p: VortexProfile, path):
    with open(path, "w") as fh:
        fh.write("r,Q,K_a,speed\n")
        for r, q, k, v in zip(p.radii, p.Q_mean, p.Ka_mean, p.speed_mean):
            fh.write(f"{r:.17g},{q:.17g},{k:.17g},{v:.17g}\n")
