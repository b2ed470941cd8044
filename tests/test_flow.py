import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.stats import norm

from madelung import flow
from madelung import scenarios as sc
from madelung.flow import (
    NEWTON_OK,
    NEWTON_OUT_OF_BOUNDS,
    NEWTON_SINGULAR,
    NodeEvent,
    Streamline,
    circulation,
    cumulative_probability,
    find_nodes,
    integrate_loop_2d,
    integrate_streamline,
    loop_seeds_on_axis,
    node_events_to_json,
    save_node_events,
    seed_quantiles,
    streamline_bundle,
    streamlines_to_csv,
    vortex_profile,
    vortex_profile_to_csv,
)
from madelung.energy import decompose
from madelung.grids import Grid1D, Grid2D, ScalarField
from madelung.spectral import (
    Harmonic,
    InfiniteWell,
    WellWithBarrier,
    eigenbasis,
    product_basis_2d,
)
from madelung.states import (
    Superposition,
    equal_two_mode,
    evaluate,
    evaluate_at,
    evaluate_at_2d,
    superposition,
)

E1 = math.pi**2 / 8.0
PERIOD = 2.0 * math.pi / (3.0 * E1)
OMEGA = 10.0


@pytest.fixture(scope="module")
def well_basis():
    return eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, 2001), 4)


@pytest.fixture(scope="module")
def two_mode(well_basis):
    return equal_two_mode(well_basis, 0, 1)


@pytest.fixture(scope="module")
def ho_basis():
    return eigenbasis(Harmonic(OMEGA), Grid1D(-3.0, 3.0, 4001), 4)


@pytest.fixture(scope="module")
def vortex_state():
    n = 161
    g2 = Grid2D(Grid1D(0.0, 1.0, n), Grid1D(0.0, 1.0, n))
    basis = product_basis_2d([(1, 2), (2, 1)], g2)
    return superposition(basis, [0, 1], np.array([1.0, 1.0j]) / math.sqrt(2.0))


@pytest.fixture(scope="module")
def vortex_ledger(vortex_state):
    return decompose(vortex_state, 0.0)


class TestSeeding:
    def test_uniform_density(self):
        g = Grid1D(0.0, 1.0, 2001)
        seeds = seed_quantiles(ScalarField(g, np.ones(g.n)), 3)
        assert np.allclose(seeds, [0.25, 0.5, 0.75], atol=1e-6)

    def test_symmetric_middle_seed(self, ho_basis):
        s = superposition(ho_basis, [0], [1.0])
        rho = ScalarField(ho_basis.grid, np.abs(evaluate(s, 0.0).values) ** 2)
        seeds = seed_quantiles(rho, 5)
        assert abs(seeds[2]) < ho_basis.grid.h

    def test_gaussian_seeds_match_cdf_inversion(self, ho_basis):
        # ground-state density is a normal law; invert its CDF directly
        s = superposition(ho_basis, [0], [1.0])
        rho = ScalarField(ho_basis.grid, np.abs(evaluate(s, 0.0).values) ** 2)
        seeds = seed_quantiles(rho, 2)
        sigma = math.sqrt(1.0 / (2.0 * OMEGA))
        oracle = norm.ppf([1.0 / 3.0, 2.0 / 3.0], scale=sigma)
        assert np.abs(seeds - oracle).max() < 1e-5

    def test_cdf_matches_scipy_trapezoid_bits(self, well_basis):
        g = well_basis.grid
        ts = np.linspace(0.0, 1.0, 37)
        s = equal_two_mode(well_basis, 0, 1)
        rho = np.stack([np.abs(evaluate(s, t).values) ** 2 for t in ts])
        for values in (rho, rho[5]):
            cdf, total = flow._cdf(values, g.x)
            ref = cumulative_trapezoid(values, g.x, axis=-1, initial=0.0)
            assert np.array_equal(total, ref[..., -1:])
            assert np.array_equal(cdf, ref / ref[..., -1:])

    def test_count_must_be_positive(self, ho_basis):
        s = superposition(ho_basis, [0], [1.0])
        rho = ScalarField(ho_basis.grid, np.abs(evaluate(s, 0.0).values) ** 2)
        with pytest.raises(ValueError, match="at least 1"):
            seed_quantiles(rho, 0)


class TestStreamlines:
    def test_eigenstate_is_static(self, ho_basis):
        s = superposition(ho_basis, [0], [1.0])
        ln = integrate_streamline(s, 0.3, (0.0, 0.5))
        assert not ln.flagged
        assert np.abs(ln.x - 0.3).max() < 1e-7

    def test_two_mode_periodicity(self, two_mode):
        ln = integrate_streamline(two_mode, -0.4, (0.0, PERIOD))
        assert abs(ln.x[-1] - ln.x[0]) < 1e-3

    def test_quantile_transport(self, two_mode):
        te = np.linspace(0.0, PERIOD, 33)
        ln = integrate_streamline(two_mode, -0.4, (0.0, PERIOD), t_eval=te)
        devs = [
            abs(cumulative_probability(two_mode, xv, tv) - ln.seed_quantile)
            for tv, xv in zip(ln.t, ln.x)
        ]
        assert max(devs) < 1e-3

    def test_streamline_matches_quantile_route(self, two_mode):
        q = 0.3
        x0 = flow._quantile_curves(two_mode, [q], [0.0])[0][0, 0]
        te = np.linspace(0.0, PERIOD, 17)
        ln = integrate_streamline(two_mode, x0, (0.0, PERIOD), t_eval=te)
        X, _ = flow._quantile_curves(two_mode, [q], ln.t)
        assert np.abs(X[:, 0] - ln.x).max() < 1e-3

    def test_bundle_never_crosses(self, two_mode):
        te = np.linspace(0.0, PERIOD, 33)
        lines = streamline_bundle(two_mode, 5, (0.0, PERIOD), t_eval=te)
        assert [ln.seed_quantile for ln in lines] == sorted(
            ln.seed_quantile for ln in lines
        )
        X = np.stack([ln.x for ln in lines])
        assert (np.diff(X, axis=0) > 0).all()

    def test_pause_when_node_arrives(self, well_basis):
        # two even modes: the center trajectory sits still while the central
        # density rho(0, t) ~ sin^2(delta t / 2) sweeps through zero
        s = superposition(well_basis, [0, 2], np.array([1.0, 1.0]) / math.sqrt(2.0))
        delta = math.pi**2
        t_node = 2.0 * math.pi / delta
        ln = integrate_streamline(s, 0.0, (math.pi / delta, t_node + 0.05))
        assert ln.flagged
        assert abs(ln.t_flag - t_node) < 1e-4
        assert (ln.t <= ln.t_flag).all()

    def test_masked_start_rejected(self, well_basis):
        mode2 = superposition(well_basis, [1], [1.0])
        with pytest.raises(ValueError, match="masked"):
            integrate_streamline(mode2, -1.0, (0.0, 1.0))  # wall
        with pytest.raises(ValueError, match="masked"):
            integrate_streamline(mode2, 0.0, (0.0, 1.0))  # node point

    def test_strictly_increasing_times_enforced(self):
        with pytest.raises(ValueError, match="increasing"):
            Streamline(0.5, np.array([0.0, 0.0]), np.array([0.1, 0.2]))

    def test_two_dimensional_state_rejected(self, vortex_state):
        with pytest.raises(ValueError, match="1D"):
            integrate_streamline(vortex_state, 0.4, (0.0, 0.1))


class TestQuantileCurves:
    def test_mzi_lines_keep_their_quantile(self):
        # the tuned interferometer on its numeric 140-mode basis, as the
        # scenario run draws its streamlines
        c = sc.default_config("mzi_1d", barrier_height=2437.5, frames=4, streamlines=3)
        b = sc.build_scenario(c)
        s = b.states[0]
        lines = streamline_bundle(s, c.streamlines, b.span, t_eval=b.frame_times)
        devs = [
            abs(cumulative_probability(s, float(xv), float(tv)) - ln.seed_quantile)
            for ln in lines
            for tv, xv in zip(ln.t, ln.x)
        ]
        assert len(devs) == c.streamlines * c.frames
        assert max(devs) < 1e-3

    def test_velocity_field_transports_the_quantiles(self, two_mode):
        # integrate dx/dt = v_a = Im(psi* dpsi/dx) / rho on its own terms and
        # compare with the quantile curves: the CDF inversion never sees v_a
        te = np.linspace(0.0, PERIOD, 33)
        lines = streamline_bundle(two_mode, 9, (0.0, PERIOD), t_eval=te)

        def v_a(t, y):
            psi, dpsi, _ = evaluate_at(two_mode, y, t)
            return (psi.conjugate() * dpsi).imag / np.abs(psi) ** 2

        seeds = np.array([ln.x[0] for ln in lines])
        sol = solve_ivp(v_a, (0.0, PERIOD), seeds, method="RK45", t_eval=te,
                        rtol=1e-11, atol=1e-12)
        assert sol.success
        X = np.stack([ln.x for ln in lines])
        assert np.abs(sol.y - X).max() < 1e-5

    def test_newton_step_inverts_the_cdf(self, two_mode):
        # the grid inverse alone misses cumulative_probability by ~5e-7 here
        te = np.linspace(0.0, PERIOD, 33)
        lines = streamline_bundle(two_mode, 9, (0.0, PERIOD), t_eval=te)
        devs = [
            abs(cumulative_probability(two_mode, float(xv), float(tv)) - ln.seed_quantile)
            for ln in lines
            for tv, xv in zip(ln.t, ln.x)
        ]
        assert max(devs) < 1e-10

    def test_default_samples_span_the_window(self, two_mode):
        ln = integrate_streamline(two_mode, -0.4, (0.0, PERIOD))
        np.testing.assert_array_equal(ln.t, np.linspace(0.0, PERIOD, 65))

    def test_sample_times_outside_span_rejected(self, two_mode):
        with pytest.raises(ValueError, match="outside"):
            streamline_bundle(two_mode, 3, (0.0, 1.0), t_eval=[0.5, 1.5])


class TestQuantilePosition:
    def test_symmetric_median_at_center(self, ho_basis):
        s = superposition(ho_basis, [0], [1.0])
        X, _ = flow._quantile_curves(s, [0.5], [0.0])
        assert abs(X[0, 0]) < 1e-6

    def test_eigenstate_static_quantiles(self, ho_basis):
        s = superposition(ho_basis, [2], [1.0])
        X, _ = flow._quantile_curves(s, [0.3], [0.0, 1.7])
        assert abs(X[1, 0] - X[0, 0]) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        q1=st.floats(0.05, 0.95),
        q2=st.floats(0.05, 0.95),
    )
    def test_positions_monotone_in_quantile(self, ho_basis, q1, q2):
        if abs(q1 - q2) < 1e-3:
            return
        lo, hi = sorted((q1, q2))
        s = superposition(ho_basis, [0, 2], np.array([0.8, 0.6j]))
        X, _ = flow._quantile_curves(s, [lo, hi], [0.37])
        assert X[0, 0] < X[0, 1]


class TestNodeEvents:
    def test_stationary_node_line_degenerate(self, well_basis):
        mode2 = superposition(well_basis, [1], [1.0])
        events = find_nodes(mode2, (0.0, PERIOD))
        assert len(events) == 1
        e = events[0]
        assert e.degenerate and not e.refined
        assert abs(e.x_star) < well_basis.grid.h

    def test_two_mode_pair_matches_closed_form(self, two_mode):
        # in-window zeros of psi_1 +/- psi_2: cos(u) = ±1/2 at u = pi(x+1)/2,
        # giving (x, t) = (-1/3, T/2) and (+1/3, T)
        events = find_nodes(two_mode, (PERIOD / 8.0, PERIOD * 9.0 / 8.0))
        assert len(events) == 2
        assert all(e.refined and not e.degenerate for e in events)
        first, second = events
        assert abs(first.x_star + 1.0 / 3.0) < 1e-6
        assert abs(first.t_star - PERIOD / 2.0) < 1e-6
        assert abs(second.x_star - 1.0 / 3.0) < 1e-6
        assert abs(second.t_star - PERIOD) < 1e-6
        # mirror pair, half a period apart
        assert abs(first.x_star + second.x_star) < 1e-6
        assert abs((second.t_star - first.t_star) - PERIOD / 2.0) < 1e-6

    def test_refined_events_meet_amplitude_floor(self, two_mode):
        events = find_nodes(two_mode, (PERIOD / 8.0, PERIOD * 9.0 / 8.0))
        amp_scale = np.abs(evaluate(two_mode, 0.0).values).max()
        for e in events:
            assert abs(evaluate_at(two_mode, e.x_star, e.t_star)[0]) < 1e-8 * amp_scale

    def test_vortex_node_persistent_at_center(self, vortex_state):
        events = find_nodes(vortex_state, (0.0, 0.1), nt=9)
        assert len(events) == 1
        e = events[0]
        assert e.refined and e.degenerate
        x, y = e.x_star
        assert abs(x - 0.5) < 1e-9 and abs(y - 0.5) < 1e-9

    def test_bad_window_rejected(self, two_mode):
        with pytest.raises(ValueError, match="increasing"):
            find_nodes(two_mode, (1.0, 0.5))

    def test_diagnostics_count_the_search(self, two_mode, well_basis):
        stats = {}
        find_nodes(two_mode, (PERIOD / 8.0, PERIOD * 9.0 / 8.0), diagnostics=stats)
        steps = stats.pop("newton_iterations_max")
        assert stats == {"candidates": 2, "refined": 2, "singular": 0, "out_of_bounds": 0,
                         "events_outside_window": 0}
        assert 1 <= steps <= 30
        mode2 = superposition(well_basis, [1], [1.0])
        stats = {}
        find_nodes(mode2, (0.0, PERIOD), diagnostics=stats)
        assert stats["singular"] == stats["candidates"] > 0
        assert stats["refined"] == 0 and stats["newton_iterations_max"] == 0

    def test_evaluator_calls_do_not_grow_with_candidates(self, well_basis, monkeypatch):
        # all candidates refine together: one evaluation per Newton step
        # plus one for the residuals, however many candidates there are
        s = superposition(well_basis, [0, 1, 2, 3], np.array([0.5, 0.5j, -0.5, 0.5]))
        real, calls = flow.evaluate_at, []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(flow, "evaluate_at", counting)
        stats = {}
        find_nodes(s, (0.0, 3.0 * PERIOD), diagnostics=stats)
        assert stats["candidates"] > 31 and stats["newton_iterations_max"] > 1
        assert len(calls) <= 31

    def test_2d_search_is_one_newton_pass(self, vortex_state, monkeypatch):
        # the candidates of every time slice refine together
        real, calls = flow.evaluate_at_2d, []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(flow, "evaluate_at_2d", counting)
        stats = {}
        find_nodes(vortex_state, (0.0, 0.05), nt=9, diagnostics=stats)
        assert stats["candidates"] == 9
        assert len(calls) <= stats["newton_iterations_max"] + 1


# The node search as it stood with one function per dimension, kept
# verbatim as an oracle (renamed oracle_*) on the package's unchanged
# helpers: the single lattice-plane search must give the same events and
# the same diagnostics, bit for bit.


def oracle_find_nodes(s, t_window, x_window=None, nt: int = 257,
                      diagnostics: dict | None = None) -> list:
    t0, t1 = float(t_window[0]), float(t_window[1])
    if not t1 > t0:
        raise ValueError("time window must be increasing")
    g = s.grid
    if g.ndim == 2:
        if x_window is not None:
            raise ValueError("x_window applies to 1D states; 2D searches cover the box")
        events, stats = _oracle_find_nodes_2d(s, (t0, t1), nt)
    else:
        events, stats = _oracle_find_nodes_1d(s, (t0, t1), x_window, nt)
    if diagnostics is not None:
        diagnostics.update(stats)
        diagnostics["events_outside_window"] = sum(
            1 for e in events if not t0 <= e.t_star <= t1)
    return events


def _oracle_find_nodes_1d(s, t_window, x_window, nt: int):
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
    R2 = np.empty(ts.shape + s.grid.shape)  # in place: a chunk list would raise peak RSS
    for k, tc, rho in flow._grid_rho(s, ts):
        R2[k:k + tc.size] = rho
    scale = R2.max()
    amp_scale = math.sqrt(scale)
    jj, ii = flow._local_minima_2d(R2.T, flow.NODE_RHO_REL_TOL * scale)  # strict in x, ties in t
    inside = (g.x[jj] >= xlo) & (g.x[jj] <= xhi)
    jj, ii = jj[inside], ii[inside]

    bounds = ((xlo - 5 * g.h, xhi + 5 * g.h), (t0 - 5 * dt_lat, t1 + 5 * dt_lat))
    res = flow._newton_node(lambda x, t: evaluate_at(s, x, t), g.x[jj], ts[ii], bounds)
    refined = res.amp < flow.NODE_RESIDUAL * amp_scale
    raw = [
        (float(res.b[k]), float(res.a[k]), True, res.amp[k] / amp_scale) if refined[k]
        else (float(ts[i]), float(g.x[j]), False, math.sqrt(R2[i, j] / scale))
        for k, (j, i) in enumerate(zip(jj, ii))
    ]
    return (flow._cluster(raw, dt_lat, 2 * g.h, t1 - t0),
            flow._node_diagnostics(res.status, res.steps, refined))


def _oracle_find_nodes_2d(s, t_window, nt: int):
    t0, t1 = t_window
    g2 = s.grid
    gx, gy = g2.grid_x, g2.grid_y
    nt = max(2, min(int(nt), 33))
    ts = np.linspace(t0, t1, nt)
    dt_lat = ts[1] - ts[0]
    h = max(gx.h, gy.h)
    bounds = ((gx.x_min, gx.x_max), (gy.x_min, gy.x_max))
    R2 = np.empty(ts.shape + s.grid.shape)  # in place: a chunk list would raise peak RSS
    for k, tc, rho in flow._grid_rho(s, ts):
        R2[k:k + tc.size] = rho
    scale = R2.max(axis=(1, 2))
    amp_scale = np.sqrt(scale)
    kk, ix, iy = flow._local_minima_2d(R2, flow.NODE_RHO_REL_TOL * scale[:, None, None])
    # paired times: each candidate takes the dot product a one-point call would
    res = flow._newton_node(lambda x, y, t: evaluate_at_2d(s, x, y, t), gx.x[ix], gy.x[iy],
                            bounds, paired=(ts[kk],))
    refined = res.amp < flow.NODE_RESIDUAL * amp_scale[kk]
    raw = [
        (float(ts[k]), (float(res.a[n]), float(res.b[n])), True, res.amp[n] / amp_scale[k])
        if refined[n]
        else (float(ts[k]), (float(gx.x[i]), float(gy.x[j])), False,
              math.sqrt(R2[k, i, j] / scale[k]))
        for n, (k, i, j) in enumerate(zip(kk, ix, iy))
    ]
    return (flow._cluster(raw, dt_lat, 2 * h, t1 - t0),
            flow._node_diagnostics(res.status, res.steps, refined))


@pytest.fixture(scope="module")
def mzi_nodes():
    # the benchmark's interferometer: its node source and window
    b = sc.build_scenario(sc.default_config("mzi_1d", barrier_height=2437.5, frames=4,
                                            streamlines=3))
    return b.states[-1], b.span


class TestNodeSearchOracle:
    @pytest.mark.parametrize("case", [
        "two_mode", "mode2", "complex4", "barrier", "hermite", "mzi", "vortex", "box3",
        "clamp_1d", "clamp_2d",
    ])
    def test_same_events_and_diagnostics(self, case, request, well_basis, two_mode,
                                         ho_basis, vortex_state):
        if case == "two_mode":
            s, window, kw = two_mode, (PERIOD / 8.0, PERIOD * 9.0 / 8.0), {}
        elif case == "mode2":
            s, window, kw = superposition(well_basis, [1], [1.0]), (0.0, PERIOD), {}
        elif case == "complex4":
            s = superposition(well_basis, [0, 1, 2, 3], np.array([0.5, 0.5j, -0.5, 0.5]))
            window, kw = (0.0, 3.0 * PERIOD), {}
        elif case == "barrier":
            basis = eigenbasis(WellWithBarrier(1.0, 15.0, 0.2), Grid1D(-1.0, 1.0, 2001), 3)
            s, window, kw = superposition(basis, [0, 1, 2], [0.6, 0.48j, 0.64]), (0.0, 1.0), {}
        elif case == "hermite":
            s = superposition(ho_basis, [0, 1, 2], np.array([0.6, 0.48, 0.64j]))
            window, kw = (0.0, 2.0 * math.pi / OMEGA), {}
        elif case == "mzi":
            (s, window), kw = request.getfixturevalue("mzi_nodes"), {}
        elif case == "vortex":
            s, window, kw = vortex_state, (0.0, 0.1), {"nt": 9}
        elif case == "box3":
            basis = product_basis_2d([(1, 2), (2, 1), (2, 2)], vortex_state.grid)
            s = superposition(basis, [0, 1, 2], np.array([0.6, 0.64j, 0.48]))
            window, kw = (0.0, 0.05), {}
        elif case == "clamp_1d":
            s, window, kw = two_mode, (0.0, PERIOD), {"nt": 5}
        else:
            s, window, kw = vortex_state, (0.0, 0.1), {"nt": 50}
        stats, want_stats = {}, {}
        got = find_nodes(s, window, diagnostics=stats, **kw)
        want = oracle_find_nodes(s, window, diagnostics=want_stats, **kw)
        assert got == want
        assert stats == want_stats
        assert want  # every case finds a zero
        if case == "mzi":
            # 700 events at two OpenBLAS threads, 701 at one: the lattice
            # bits move with the thread count (ROADMAP item 4)
            assert len(want) in (700, 701)


class TestGridRho:
    @pytest.mark.parametrize("kind", ["well", "barrier", "box"])
    def test_rows_match_evaluate(self, kind, two_mode, vortex_state):
        if kind == "well":
            s = two_mode
        elif kind == "barrier":
            basis = eigenbasis(WellWithBarrier(1.0, 15.0, 0.2), Grid1D(-1.0, 1.0, 2001), 3)
            s = superposition(basis, [0, 1, 2], [0.6, 0.48j, 0.64])
        else:
            s = vortex_state
        # more times than one chunk of the Re/Im stack holds
        per_chunk = flow._STACK_VALUES // (2 * math.prod(s.grid.shape))
        ts = np.linspace(0.0, 1.0, 2 * per_chunk + 1)
        chunks = list(flow._grid_rho(s, ts))
        assert [k for k, _, _ in chunks] == [0, per_chunk, 2 * per_chunk]
        assert np.array_equal(np.concatenate([tc for _, tc, _ in chunks]), ts)
        rho = np.concatenate([r for _, _, r in chunks])
        for t, row in zip(ts, rho):
            want = np.abs(evaluate(s, t).values) ** 2
            assert np.abs(row - want).max() <= 1e-14 * want.max()


def _newton_starts():
    x, t = np.meshgrid(np.linspace(-0.9, 0.9, 7), np.linspace(0.0, 1.5, 6))
    x, t = x.ravel(), t.ravel()
    x[0] = 0.0  # on mode 2's stationary node line the Jacobian is singular
    return x, t


def _same_bits(u, v):
    return np.array_equal(u, v, equal_nan=True)


class TestBatchNewton:
    @pytest.mark.parametrize("kind", ["well", "interpolated", "mode2"])
    def test_batch_matches_single_candidates(self, kind, well_basis, two_mode):
        if kind == "well":
            s = two_mode
        elif kind == "interpolated":
            basis = eigenbasis(WellWithBarrier(1.0, 15.0, 0.2), Grid1D(-1.0, 1.0, 2001), 3)
            s = superposition(basis, [0, 1, 2], [0.6, 0.48j, 0.64])
        else:
            s = superposition(well_basis, [1], [1.0])

        def f(x, t):
            return evaluate_at(s, x, t)

        x, t = _newton_starts()
        bounds = ((-1.0, 1.0), (-0.2, 1.7))
        batch = flow._newton_node(f, x, t, bounds)
        want = {"well": NEWTON_OK, "interpolated": NEWTON_OK, "mode2": NEWTON_SINGULAR}
        assert (batch.status == want[kind]).any()
        assert (batch.status == NEWTON_OUT_OF_BOUNDS).any()
        assert np.isnan(batch.amp[batch.status != NEWTON_OK]).all()
        for k in range(x.size):
            one = flow._newton_node(f, x[k:k + 1], t[k:k + 1], bounds)
            for field in ("a", "b", "amp", "status", "steps"):
                assert _same_bits(getattr(batch, field)[k:k + 1], getattr(one, field)), (k, field)


def _dist(p, q):
    if np.ndim(p) == 0:
        return abs(p - q)
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _first_coord(p):
    return p if np.ndim(p) == 0 else p[0]


def _cluster_oracle(raw, dt_lat, space_tol, window_span):
    """The all-pairs union the sweep in flow._cluster replaced."""
    n = len(raw)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(n):
        for b in range(a + 1, n):
            if abs(raw[a][0] - raw[b][0]) <= 2 * dt_lat and _dist(
                raw[a][1], raw[b][1]
            ) <= space_tol:
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


# dyadic lattice values put pairs exactly 2 dt_lat = space_tol = 0.25 apart
_COORD = st.one_of(st.integers(-12, 12).map(lambda i: i * 0.125),
                   st.floats(-1.5, 1.5, allow_nan=False))
_RESIDUAL = st.sampled_from([0.0, 1e-9, 1e-9, 2e-4, 0.5])


class TestClusterSweep:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_COORD, _COORD, st.booleans(), _RESIDUAL), max_size=40),
           st.sampled_from([0.5, 2.0, 8.0]))
    def test_1d_matches_all_pairs(self, raw, span):
        assert flow._cluster(raw, 0.125, 0.25, span) == _cluster_oracle(raw, 0.125, 0.25, span)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_COORD, st.tuples(_COORD, _COORD), st.booleans(), _RESIDUAL),
                    max_size=40),
           st.sampled_from([0.5, 2.0, 8.0]))
    def test_2d_matches_all_pairs(self, raw, span):
        assert flow._cluster(raw, 0.125, 0.25, span) == _cluster_oracle(raw, 0.125, 0.25, span)


LOOP_SPAN = (0.0, 0.5)
LOOP_T = np.linspace(0.0, 0.5, 129)


@pytest.fixture(scope="module")
def stock_loops():
    """The stock vortex state, its 4 stock seeds on x = 0.5, their loops
    and the integrator's work counts."""
    state = sc.build_scenario(sc.default_config("vortex_2d")).states[0]
    starts = [(0.5, y0) for y0 in loop_seeds_on_axis(state, 4, 0.5)]
    work = {}
    loops = integrate_loop_2d(state, starts, LOOP_SPAN, t_eval=LOOP_T,
                              seed_quantiles=[0.2, 0.4, 0.6, 0.8], diagnostics=work)
    return state, starts, loops, work


def _reference_loop(s, p0, tol):
    """scipy RK45 on the same clipped, rho-floored velocity field."""
    gx, gy = s.grid.axes
    floor = flow.NODE_PAUSE_FACTOR * flow.EPS_NODE * (np.abs(evaluate(s, 0.0).values) ** 2).max()

    def rhs(t, p):
        x = min(max(p[0], gx.x_min), gx.x_max)
        y = min(max(p[1], gy.x_min), gy.x_max)
        psi, dx, dy = (complex(v) for v in evaluate_at_2d(s, x, y, t))
        rho = max(psi.real**2 + psi.imag**2, floor)
        return (psi.conjugate() * dx).imag / rho, (psi.conjugate() * dy).imag / rho

    sol = solve_ivp(rhs, LOOP_SPAN, p0, method="RK45", rtol=tol, atol=tol, t_eval=LOOP_T,
                    max_step=(LOOP_SPAN[1] - LOOP_SPAN[0]) / 64.0)
    assert sol.success
    return np.clip(sol.y[0], gx.x_min, gx.x_max), np.clip(sol.y[1], gy.x_min, gy.x_max)


class TestLoops:
    def test_loops_match_tight_rk45_reference(self, stock_loops):
        state, starts, loops, _ = stock_loops
        for p0, loop in zip(starts, loops):
            x, y = _reference_loop(state, p0, 1e-12)
            assert np.abs(loop.x - x).max() < 1e-6
            assert np.abs(loop.y - y).max() < 1e-6

    def test_loop_alone_equals_loop_in_batch(self, stock_loops):
        state, starts, loops, _ = stock_loops
        for j in (0, 1):
            alone, = integrate_loop_2d(state, [starts[j]], LOOP_SPAN, t_eval=LOOP_T,
                                       seed_quantiles=[loops[j].seed_quantile])
            assert np.array_equal(alone.x, loops[j].x)
            assert np.array_equal(alone.y, loops[j].y)

    def test_samples_at_t_eval(self, stock_loops):
        _, _, loops, _ = stock_loops
        assert [lp.seed_quantile for lp in loops] == [0.2, 0.4, 0.6, 0.8]
        for loop in loops:
            assert np.array_equal(loop.t, LOOP_T)
            assert loop.x.shape == loop.y.shape == LOOP_T.shape

    def test_loops_follow_the_stream_function(self, stock_loops):
        # for psi = sin(pi x) sin(2 pi y) + i sin(2 pi x) sin(pi y) the
        # current rho v_a is the curl of -(4/3) (sin(pi x) sin(pi y))^3, so
        # sin(pi x) sin(pi y) is constant along every loop
        _, _, loops, _ = stock_loops
        for loop in loops:
            c = np.sin(math.pi * loop.x) * np.sin(math.pi * loop.y)
            assert np.abs(c / c[0] - 1.0).max() < 1e-6

    def test_one_evaluator_call_per_stage(self, stock_loops):
        _, _, _, work = stock_loops
        assert set(work) == {"accepted_steps", "rejected_steps", "evaluator_calls"}
        attempts = np.add(work["accepted_steps"], work["rejected_steps"])
        assert len(attempts) == 4 and (attempts > 0).all()
        # f(t0) and the first-step probe, then 6 stages per lockstep round
        assert work["evaluator_calls"] == 2 + 6 * attempts.max()

    def test_step_ends_without_t_eval(self, vortex_state):
        loop, = integrate_loop_2d(vortex_state, [(0.5, 0.3)], (0.0, 0.05))
        assert loop.t[0] == 0.0 and loop.t[-1] == 0.05
        assert (loop.x[0], loop.y[0]) == (0.5, 0.3)
        assert np.isnan(loop.seed_quantile)

    def test_step_size_underflow_raises(self, vortex_state):
        with pytest.raises(RuntimeError, match="loop integration failed"):
            integrate_loop_2d(vortex_state, [(0.5, 0.3), (math.nan, 0.5)], (0.0, 0.05))

    def test_bad_arguments_rejected(self, vortex_state, two_mode):
        with pytest.raises(ValueError, match="2D"):
            integrate_loop_2d(two_mode, [(0.5, 0.3)], (0.0, 0.05))
        with pytest.raises(ValueError, match="seed quantile"):
            integrate_loop_2d(vortex_state, [(0.5, 0.3)], (0.0, 0.05), seed_quantiles=[0.1, 0.2])
        with pytest.raises(ValueError, match="outside the time span"):
            integrate_loop_2d(vortex_state, [(0.5, 0.3)], (0.0, 0.05), t_eval=[0.0, 0.1])
        assert integrate_loop_2d(vortex_state, np.empty((0, 2)), (0.0, 0.05)) == []


# ---------------------------------------------------- loop stepper oracle
#
# integrate_loop_2d as it was before the lockstep stepper was reworked
# (one gather and scatter per step, stages in a list), verbatim apart from
# the names below and the docstring, on the package's evaluator.  The package's stepper must
# give the same loops and work counts bit for bit.

# Dormand-Prince 5(4) as in scipy's RK45: nodes, stage weights, 5th-order
# weights, error weights (7 stages, the last at the step's end) and the
# 4th-order dense-output matrix
_O_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_O_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_O_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_O_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_O_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


def _oracle_combine(coeffs, K):
    """sum_j coeffs[j] K[j] term by term, zero coefficients skipped: a fixed
    elementwise order, so each loop's sums are the same in any batch."""
    terms = [c * K[j] for j, c in enumerate(coeffs) if c != 0.0]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _oracle_rms(a, b):
    # RMS norm of the pairs (a, b)
    return np.sqrt(a * a + b * b) / math.sqrt(2.0)


def oracle_integrate_loop_2d(s: Superposition, starts, t_span, t_eval=None,
                             seed_quantiles=None, diagnostics: dict | None = None) -> list:
    """The pre-rework flow.integrate_loop_2d; its docstring is in the package."""
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
    (_, _, rho0), = flow._grid_rho(s, [t0])
    floor = flow.NODE_PAUSE_FACTOR * flow.EPS_NODE * float(rho0.max())
    lo, hi = np.array([gx.x_min, gy.x_min]), np.array([gx.x_max, gy.x_max])
    calls = 0

    def velocity(t, y):
        # v_a = Im(conj(psi) grad psi) / rho at the rows of y, paired with t
        nonlocal calls
        calls += 1
        p = np.minimum(np.maximum(y, lo), hi)
        v = evaluate_at_2d(s, p[:, 0], p[:, 1], t)
        psi = v[0]
        rho = np.maximum(psi.real**2 + psi.imag**2, floor)
        return ((psi.conjugate() * v[1:]).imag / rho).T

    # first step: scipy's select_initial_step, one batched probe
    t = np.full(L, t0)
    y = p0.copy()
    f = velocity(t, y)
    scale = flow.LOOP_TOL + np.abs(y) * flow.LOOP_TOL
    d0 = _oracle_rms(*(y / scale).T)
    d1 = _oracle_rms(*(f / scale).T)
    h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), t1 - t0)
    d2 = _oracle_rms(*((velocity(t + h0, y + h0[:, None] * f) - f) / scale).T) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.maximum(d1, d2)) ** 0.2)
    h_abs = np.minimum(np.minimum(100 * h0, h1), min(t1 - t0, max_step))

    retry = np.zeros(L, dtype=bool)  # the step is being retried smaller
    accepted = np.zeros(L, dtype=int)
    rejected = np.zeros(L, dtype=int)
    steps = []  # (loop indices, t_old, t_new, y_old, y_new, stages (n, 7, 2))
    live = np.arange(L)
    while live.size:
        tl, yl, fl, hl, rl = t[live], y[live], f[live], h_abs[live], retry[live]
        min_step = 10.0 * np.abs(np.nextafter(tl, np.inf) - tl)
        # a retried step under min_step (or NaN) underflows
        under = rl & ~(hl >= min_step)
        if under.any():
            i = live[np.argmax(under)]
            raise RuntimeError(f"loop integration failed: step size underflow at "
                               f"t = {t[i]!r} on the loop from {tuple(p0[i])}")
        hl = np.where(rl, hl, np.clip(hl, min_step, max_step))
        t_new = np.minimum(tl + hl, t1)
        h = t_new - tl
        K = [fl]
        for a, c in zip(_O_A[1:], _O_C[1:]):
            K.append(velocity(tl + c * h, yl + _oracle_combine(a, K) * h[:, None]))
        y_new = yl + h[:, None] * _oracle_combine(_O_B, K)
        K.append(velocity(t_new, y_new))
        scale = flow.LOOP_TOL + np.maximum(np.abs(yl), np.abs(y_new)) * flow.LOOP_TOL
        err_norm = _oracle_rms(*(_oracle_combine(_O_E, K) * h[:, None] / scale).T)
        ok = err_norm < 1.0
        with np.errstate(divide="ignore"):
            factor = flow._SAFETY * err_norm**-0.2  # inf at a zero error
        grow = np.minimum(np.where(rl, 1.0, flow._MAX_FACTOR), factor)
        # fmax: a NaN error norm shrinks the step until it underflows
        shrink = np.fmax(flow._MIN_FACTOR, factor)
        h_abs[live] = h * np.where(ok, grow, shrink)
        retry[live] = ~ok
        accepted[live] += ok
        rejected[live] += ~ok
        go = live[ok]
        if go.size:
            steps.append((go, tl[ok], t_new[ok], yl[ok], y_new[ok], np.stack(K, axis=1)[ok]))
            t[go], y[go], f[go] = t_new[ok], y_new[ok], K[-1][ok]
        live = live[t[live] < t1]

    if diagnostics is not None:
        diagnostics.update(accepted_steps=accepted.tolist(),
                           rejected_steps=rejected.tolist(), evaluator_calls=calls)
    idx, t_old, t_new, y_old, y_new, K = (np.concatenate(col) for col in zip(*steps))
    # dense-output coefficients of every step, (steps, 2, 4)
    Q = np.stack([_oracle_combine(_O_P[:, j], K.transpose(1, 0, 2)) for j in range(4)], axis=-1)
    loops = []
    for j in range(L):
        sel = idx == j
        if te is None:
            ts = np.concatenate([[t0], t_new[sel]])
            ys = np.concatenate([p0[j:j + 1], y_new[sel]])
        else:
            # the step (t_old, t_new] holding each sample, t0 in the first
            k = np.searchsorted(t_new[sel], te, side="left")
            to, hk, Qk = t_old[sel][k], (t_new[sel] - t_old[sel])[k], Q[sel][k]
            x = ((te - to) / hk)[:, None]
            poly = (Qk[..., 0] * x + Qk[..., 1] * (x * x) + Qk[..., 2] * (x * x * x)
                    + Qk[..., 3] * (x * x * x * x))
            ys = y_old[sel][k] + hk[:, None] * poly
            ts = te
        loops.append(flow.Loop2D(float(qs[j]), ts, np.clip(ys[:, 0], gx.x_min, gx.x_max),
                            np.clip(ys[:, 1], gy.x_min, gy.x_max)))
    return loops


def _rejecting_box():
    """A 3-mode box state whose three loops reject steps and end on
    different rounds, so the retry path and a shrinking live set both run."""
    axis = Grid1D(0.0, 1.0, 81)
    basis = product_basis_2d([(1, 2), (2, 1), (2, 3)], Grid2D(axis, axis))
    s = superposition(basis, [0, 1, 2], np.array([1.0, 1.0j, 0.5 + 0.3j]), normalize=True)
    return s, [(0.5, 0.3), (0.3, 0.6), (0.7, 0.45)]


def _same_loops(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (np.isnan(a.seed_quantile) and np.isnan(b.seed_quantile)
                or a.seed_quantile == b.seed_quantile)
        for name in ("t", "x", "y"):
            u, v = getattr(a, name), getattr(b, name)
            assert u.shape == v.shape and np.array_equal(u, v), name


class TestStepperOracle:
    @staticmethod
    def _both(s, starts, t_span, **kw):
        work, want_work = {}, {}
        got = integrate_loop_2d(s, starts, t_span, diagnostics=work, **kw)
        want = oracle_integrate_loop_2d(s, starts, t_span, diagnostics=want_work, **kw)
        _same_loops(got, want)
        assert work == want_work
        return work

    def test_stock_loops(self, stock_loops):
        state, starts, _, _ = stock_loops
        work = self._both(state, starts, LOOP_SPAN, t_eval=LOOP_T,
                          seed_quantiles=[0.2, 0.4, 0.6, 0.8])
        assert work["evaluator_calls"] == 818

    def test_rejected_steps(self):
        s, starts = _rejecting_box()
        work = self._both(s, starts, (0.0, 0.3), t_eval=np.linspace(0.0, 0.3, 31))
        assert min(work["rejected_steps"]) > 0
        assert len(set(work["accepted_steps"])) > 1

    def test_one_loop(self, stock_loops):
        state, starts, _, _ = stock_loops
        self._both(state, starts[1:2], LOOP_SPAN, t_eval=LOOP_T, seed_quantiles=[0.4])

    def test_step_ends_without_t_eval(self):
        s, starts = _rejecting_box()
        self._both(s, starts, (0.0, 0.3))


class TestVortexProfile:
    def test_inverse_square_exponent(self, vortex_ledger):
        p = vortex_profile(vortex_ledger, (0.5, 0.5), 0.1, 10)
        assert abs(p.fit_exponent + 2.0) < 0.05

    def test_orbital_speed_scales_as_inverse_radius(self, vortex_ledger):
        # winding one: |v_a| r = sqrt(Z) = 1
        p = vortex_profile(vortex_ledger, (0.5, 0.5), 0.1, 10)
        assert np.abs(p.speed_mean * p.radii - 1.0).max() < 0.05
        assert 0.85 < p.fit_Z < 1.10

    def test_total_energy_on_profile(self, vortex_ledger):
        # Q + K_a + U = E with U = 0 inside the box and E = 5 pi^2 / 2; the
        # residual is set by stencil error near the 2h floor, so compare to
        # the profile scale there and absolutely further out
        p = vortex_profile(vortex_ledger, (0.5, 0.5), 0.1, 10)
        E = 2.5 * math.pi**2
        resid = np.abs(p.Q_mean + p.Ka_mean - E)
        assert (resid / p.Ka_mean.max()).max() < 0.02
        assert resid[p.radii > 0.05].max() < 0.5

    def test_radii_respect_stencil_floor(self, vortex_ledger):
        p = vortex_profile(vortex_ledger, (0.5, 0.5), 0.1, 10)
        h = max(vortex_ledger.grid.grid_x.h, vortex_ledger.grid.grid_y.h)
        assert p.radii.min() >= 2 * h
        assert (np.diff(p.radii) > 0).all()

    def test_radius_beyond_boundary_rejected(self, vortex_ledger):
        with pytest.raises(ValueError, match="boundary"):
            vortex_profile(vortex_ledger, (0.5, 0.5), 0.6, 10)


class TestCirculation:
    def test_one_quantum_around_the_core(self, vortex_state):
        # the swirl runs clockwise: +2 pi along the flow, -2 pi against it
        along = circulation(vortex_state, (0.5, 0.5), 0.1, orientation=-1)
        against = circulation(vortex_state, (0.5, 0.5), 0.1, orientation=1)
        assert abs(along - 2.0 * math.pi) < 1e-3
        assert abs(against + 2.0 * math.pi) < 1e-3

    def test_zero_without_enclosed_node(self, vortex_state):
        loop = circulation(vortex_state, (0.25, 0.30), 0.05)
        assert abs(loop) < 1e-3


class TestExports:
    def test_streamline_csv(self, two_mode, tmp_path):
        te = np.linspace(0.0, PERIOD / 4.0, 9)
        lines = streamline_bundle(two_mode, 3, (0.0, PERIOD / 4.0), t_eval=te)
        path = tmp_path / "lines.csv"
        streamlines_to_csv(lines, path)
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "seed_q,t,x"
        assert len(rows) == 1 + sum(ln.t.size for ln in lines)

    def test_node_event_json(self, two_mode, tmp_path):
        events = find_nodes(two_mode, (PERIOD / 8.0, PERIOD * 9.0 / 8.0))
        docs = node_events_to_json(events)
        assert {"t", "x", "refined", "degenerate", "residual"} <= set(docs[0])
        path = tmp_path / "events.json"
        save_node_events(events, path)
        assert json.loads(path.read_text()) == docs

    def test_vortex_profile_csv(self, vortex_ledger, tmp_path):
        p = vortex_profile(vortex_ledger, (0.5, 0.5), 0.1, 10)
        path = tmp_path / "profile.csv"
        vortex_profile_to_csv(p, path)
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "r,Q,K_a,speed"
        assert len(rows) == 1 + p.radii.size
