"""The off-grid evaluator against a frozen copy of the one it replaced.

The oracle below is the earlier `spectral.mode_table` (with its sine,
Hermite and interpolation tables) and `states._contract`, `_weights`,
`evaluate_at` and `evaluate_at_2d`, kept verbatim apart from the names of
the three public functions.  The package's evaluator must agree with it
bit for bit, for one time and for paired times, on every kind of basis,
and the stock 2D loops must come out the same whichever of the two they
call.  The paired path takes one BLAS dot per point, so CI also runs this
file at one and at two OpenBLAS threads.  TestPointsArray checks the
evaluator's one (D, n) points array on the grid's edges, for one time and
for paired times, and under the loop stepper, which calls it directly.
TestPlan checks what a state caches for its evaluations: built once per
state, O(K) values, one set per selection of a basis.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from madelung import flow
from madelung import states
from madelung import scenarios as sc
from madelung.grids import Grid1D, Grid2D
from madelung.spectral import (
    Harmonic,
    InfiniteWell,
    WellWithBarrier,
    eigenbasis,
    product_basis_2d,
)
from madelung.states import evaluate, evaluate_at, evaluate_at_2d, superposition, time_derivative

# ------------------------------------------------------------------ oracle


def _sine_modes(n, lo: float, width: float, x):
    """Hard-wall modes sqrt(2/w) sin(n pi (x - lo) / w) and their
    x-derivatives; a mode axis leads for an array n."""
    amp = math.sqrt(2.0 / width)
    n = np.asarray(n)
    arg = np.multiply.outer(n * math.pi, np.asarray(x) - lo) / width
    kk = np.reshape(n * math.pi / width, n.shape + (1,) * np.ndim(x))
    return amp * np.sin(arg), amp * kk * np.cos(arg)


def _hermite_modes(omega: float, idx: np.ndarray, x):
    """Hermite functions n = idx of U = omega^2 x^2 / 2, by the stable
    normalized recurrence, signed so the first lobe from the left is
    positive, and their x-derivatives; a mode axis leads."""
    n_max = int(idx.max())
    xi = math.sqrt(omega) * np.asarray(x, dtype=float)
    chain = [(omega / math.pi) ** 0.25 * np.exp(-0.5 * xi**2)]
    if n_max >= 1:
        chain.append(math.sqrt(2.0) * xi * chain[0])
    for m in range(1, n_max):
        chain.append(
            math.sqrt(2.0 / (m + 1)) * xi * chain[m] - math.sqrt(m / (m + 1.0)) * chain[m - 1]
        )
    vals, dx = [], []
    for n in idx:
        flip = -1.0 if n % 2 else 1.0
        lower = chain[n - 1] if n >= 1 else 0.0
        vals.append(flip * chain[n])
        dx.append(flip * (math.sqrt(omega) * (math.sqrt(2.0 * n) * lower - xi * chain[n])))
    return np.stack(vals), np.stack(dx)


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


def _interp_modes(basis, idx: np.ndarray, x):
    """Cubic interpolation of the sampled modes, gathering only the four
    stencil columns of the selected modes."""
    g = basis.grid
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    i = np.floor((xa - g.x_min) / g.h).astype(int)
    i = np.clip(i, 1, g.n - 3)
    s = (xa - g.x_min) / g.h - i
    V = basis.states
    c0, c1, c2, c3 = (V[idx[:, None], i + off] for off in (-1, 0, 1, 2))
    w0, w1, w2, w3 = _lagrange_weights(s)
    d0, d1, d2, d3 = _lagrange_dweights(s)
    vals = c0 * w0 + c1 * w1 + c2 * w2 + c3 * w3
    dx = (c0 * d0 + c1 * d1 + c2 * d2 + c3 * d3) / g.h
    return (vals, dx) if np.ndim(x) else (vals[:, 0], dx[:, 0])


def oracle_mode_table(basis, idx: np.ndarray, *coords):
    """Modes idx of the basis at arbitrary points, one coordinate array per
    grid axis, and their derivative along each axis: (values, (d/dx, ...)),
    a mode axis leading.  Closed forms for the hard well, the harmonic
    oscillator and the 2D box, cubic interpolation of the sampled modes
    otherwise."""
    method = basis.meta.get("method")
    if method == "analytic_box2d":
        gx, gy = basis.grid.axes
        x, y = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in coords))
        nx, ny = np.array(basis.meta["pairs"])[idx].T
        fx, dfx = _sine_modes(nx, gx.x_min, gx.x_max - gx.x_min, x)
        fy, dfy = _sine_modes(ny, gy.x_min, gy.x_max - gy.x_min, y)
        return fx * fy, (dfx * fy, fx * dfy)
    (x,) = coords
    g = basis.grid
    if method == "analytic_well":
        vals, dx = _sine_modes(idx + 1, g.x_min, g.x_max - g.x_min, x)
    elif method == "analytic_hermite":
        vals, dx = _hermite_modes(basis.meta["omega"], idx, x)
    else:
        vals, dx = _interp_modes(basis, idx, x)
    return vals, (dx,)


def _weights(s, t):
    """c e^{-i E t} and its t-derivative, the mode axis last: (K,) for a
    scalar t, (*t.shape, K) for an array t."""
    if np.ndim(t) == 0:
        ph = np.exp(-1j * s.energies * t)
    else:
        ph = np.exp(-1j * np.multiply.outer(np.asarray(t, dtype=float), s.energies))
    return s.coeffs * ph, -1j * s.energies * s.coeffs * ph


def _contract(weights, tables):
    """sum_k w[..., k] m[k, ...] for each weight/mode-table pair, in one
    stacked matmul.  Weights carry the mode axis last, tables first.

    For one time the weights are (K,) and the tables (K, *x.shape):
    (J, 1, K) @ (J, K, points).  For paired times the weights are
    (*t.shape, K), t and x of one shape, and each point takes its own dot
    product, (J, N, 1, K) @ (J, N, K, 1): the BLAS dot a one-point call
    makes, so paired and one-point calls agree bit for bit.
    """
    # reshaped, C-ordered operands: matmul reaches BLAS only through
    # unit-stride rows, and a None axis or a transposed stack would miss it
    J = len(weights)
    if np.ndim(weights[0]) == 1:
        m = np.stack(tables)
        out = np.stack(weights).reshape(J, 1, -1) @ m.reshape(J, m.shape[1], -1)
        return tuple(out.reshape((J,) + m.shape[2:]))
    a = np.array(weights, order="C")
    b = np.ascontiguousarray(np.moveaxis(np.array(tables, dtype=complex), 1, -1))
    K = a.shape[-1]
    out = a.reshape(J, -1, 1, K) @ b.reshape(J, -1, K, 1)
    return tuple(out.reshape(a.shape[:-1]))


def oracle_evaluate_at(s, x, t):
    """(Psi, dPsi/dx, dPsi/dt) at arbitrary position(s), analytic in t.

    t is a scalar, or an array paired elementwise with x.  Mode functions
    are analytic for the hard well and harmonic bases and cubic
    interpolations of the sampled modes otherwise.
    """
    if s.grid.ndim != 1:
        raise ValueError("2D states: use evaluate_at_2d")
    modes, (dmodes,) = oracle_mode_table(s.basis, s.indices, x)
    w, wt = _weights(s, t)
    return _contract((w, w, wt), (modes, dmodes, modes))


def oracle_evaluate_at_2d(s, x, y, t):
    """(Psi, dPsi/dx, dPsi/dy) at arbitrary 2D position(s) for the analytic
    box product-state basis; t is a scalar, or an array paired with x, y."""
    modes, (dx, dy) = oracle_mode_table(s.basis, s.indices, x, y)
    w, _ = _weights(s, t)
    return _contract((w, w, w), (modes, dx, dy))


# ------------------------------------------------------------------- tests


def _random_state(basis, indices, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=len(indices)) + 1j * rng.normal(size=len(indices))
    return superposition(basis, indices, c, normalize=True)


def _vortex():
    axis = Grid1D(0.0, 1.0, 161)
    basis = product_basis_2d(list(sc.VORTEX_PAIRS), Grid2D(axis, axis))
    return superposition(basis, [0, 1], np.array([1.0, 1.0j]) / math.sqrt(2.0))


def _box9():
    # energies ascending on the 0.9 x 1.7 box; at these widths sqrt(2/w)
    # (n pi / w) and (sqrt(2/w) n pi) / w round apart for most n
    pairs = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (1, 4), (2, 3), (3, 1), (3, 2)]
    basis = product_basis_2d(pairs, Grid2D(Grid1D(0.0, 0.9, 41), Grid1D(-0.5, 1.2, 61)))
    return _random_state(basis, [0, 2, 3, 4, 5, 6, 7, 8], 7)


def _well():
    basis = eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, 2001), 8)
    return _random_state(basis, [0, 2, 3, 5, 7], 11)


def _hermite():
    basis = eigenbasis(Harmonic(10.0), Grid1D(-3.0, 3.0, 601), 8)
    return _random_state(basis, [0, 1, 4, 6, 7], 13)


def _barrier():
    # the mzi_1d basis at the stock benchmark height, all 140 modes live
    c = sc.default_config("mzi_1d")
    pot = WellWithBarrier(sc.MZI_HALF_WIDTH, 2437.5, c.barrier_width)
    basis = eigenbasis(pot, Grid1D(-sc.MZI_HALF_WIDTH, sc.MZI_HALF_WIDTH, c.grid_n), c.modes)
    assert basis.k == 140
    return _random_state(basis, np.arange(140), 17)


@pytest.fixture(scope="module", params=["vortex", "box9", "well", "hermite", "barrier_2437"])
def state(request):
    return {"vortex": _vortex, "box9": _box9, "well": _well, "hermite": _hermite,
            "barrier_2437": _barrier}[request.param]()


def _points(s, rng, n):
    """n points inside the grid, one array per axis."""
    return [g.x_min + (g.x_max - g.x_min) * rng.uniform(0.01, 0.99, n) for g in s.grid.axes]


def _evaluators(s):
    if s.grid.ndim == 1:
        return evaluate_at, oracle_evaluate_at
    return evaluate_at_2d, oracle_evaluate_at_2d


def _assert_same(s, coords, t):
    new, old = _evaluators(s)
    got, want = new(s, *coords, t), old(s, *coords, t)
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
        assert np.array_equal(g, w)


class TestOracle:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_paired_times(self, state, n):
        rng = np.random.default_rng(100 + n)
        _assert_same(state, _points(state, rng, n), rng.uniform(0.0, 0.5, n))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_one_time(self, state, n):
        rng = np.random.default_rng(200 + n)
        _assert_same(state, _points(state, rng, n), float(rng.uniform(0.0, 0.5)))

    def test_one_point(self, state):
        rng = np.random.default_rng(300)
        for _ in range(5):
            coords = [float(c[0]) for c in _points(state, rng, 1)]
            _assert_same(state, coords, float(rng.uniform(0.0, 0.5)))

    def test_shaped_points_one_time(self, state):
        # the oracle interpolates flat points only; it contracted any shape
        # flat, so its flat result reshaped is the reference
        rng = np.random.default_rng(400)
        coords = _points(state, rng, 9)
        new, old = _evaluators(state)
        got = new(state, *(c.reshape(3, 3) for c in coords), 0.25)
        for g, w in zip(got, old(state, *coords, 0.25)):
            assert np.array_equal(g, w.reshape(3, 3))

    def test_scalar_point_paired_times(self, state):
        # one point at several times: the point broadcasts against t
        rng = np.random.default_rng(500)
        coords = [float(c[0]) for c in _points(state, rng, 1)]
        _assert_same(state, coords, rng.uniform(0.0, 0.5, 4))


def _edge_points(s):
    """Points on the grid's edges, one array per axis: in 1D both ends and
    half a step inside each, where the cubic stencil's row is clipped to 1
    and to n - 3; in 2D every corner, the middle of every wall and the
    center."""
    if s.grid.ndim == 1:
        g = s.grid
        return [np.array([g.x_min, g.x_min + 0.5 * g.h, g.x_max - 0.5 * g.h, g.x_max])]
    gx, gy = s.grid.axes
    x, y = np.meshgrid([gx.x_min, 0.5 * (gx.x_min + gx.x_max), gx.x_max],
                       [gy.x_min, 0.5 * (gy.x_min + gy.x_max), gy.x_max], indexing="ij")
    return [x.ravel(), y.ravel()]


class TestPointsArray:
    """The evaluator's one (D, n) points array: on the walls, at the
    clipped stencil rows, for one time and for paired times, and called
    directly as the loop stepper does, against the oracle and against the
    public calls that take one coordinate array per axis."""

    @pytest.mark.parametrize("paired", [False, True], ids=["one_time", "paired"])
    def test_edges(self, state, paired):
        coords = _edge_points(state)
        n = coords[0].size
        t = np.linspace(0.0, 0.5, n) if paired else 0.375
        _assert_same(state, coords, t)

    def test_stencil_rows_clip_at_the_ends(self):
        # the first and last two points share the clipped rows 1 and n - 3
        s = _barrier()
        g = s.grid
        for x in (g.x_min, g.x_min + 0.5 * g.h, g.x_min + g.h):
            _assert_same(s, [np.array([x])], 0.125)
        for x in (g.x_max - g.h, g.x_max - 0.5 * g.h, g.x_max):
            _assert_same(s, [np.array([x])], 0.125)

    @pytest.mark.parametrize("paired", [False, True], ids=["one_time", "paired"])
    def test_stacked_call_is_the_separate_call(self, state, paired):
        rng = np.random.default_rng(800)
        coords = [np.concatenate([c, e]) for c, e in zip(_points(state, rng, 5),
                                                         _edge_points(state))]
        n = coords[0].size
        t = rng.uniform(0.0, 0.5, n) if paired else 0.25
        got = states._off_grid(state, np.array(coords), t, state.grid.ndim == 1)
        new, _ = _evaluators(state)
        want = new(state, *coords, t)
        assert got.shape == want.shape == (3, n)
        assert np.array_equal(got, want)

    def test_scalar_time_is_a_one_point_paired_time(self, state):
        # a scalar point at a scalar t is the paired call at that one point
        rng = np.random.default_rng(900)
        coords = [np.concatenate([c, e]) for c, e in zip(_points(state, rng, 3),
                                                         _edge_points(state))]
        new, _ = _evaluators(state)
        for j in range(coords[0].size):
            alone = new(state, *(float(c[j]) for c in coords), 0.3)
            paired = new(state, *(c[j:j + 1] for c in coords), np.array([0.3]))
            assert alone.shape == (3,) and paired.shape == (3, 1)
            assert np.array_equal(alone, paired[:, 0])

    def test_stock_loops_with_the_oracle_at_every_stage(self, monkeypatch):
        # the stepper hands its clipped (2, L) positions to the evaluator
        # as they are; the oracle, called per coordinate, gives the same loops
        s = _vortex()
        seeds = flow.loop_seeds_on_axis(s, 4, 0.5)
        te = np.linspace(0.0, 0.5, 129)

        def run():
            work = {}
            loops = flow.integrate_loop_2d(s, [(0.5, y0) for y0 in seeds], (0.0, 0.5),
                                           t_eval=te, diagnostics=work)
            return loops, work

        loops, work = run()
        monkeypatch.setattr(flow, "_off_grid", lambda s, pts, t, _: np.array(
            oracle_evaluate_at_2d(s, pts[0], pts[1], t)))
        want, want_work = run()
        assert work == want_work and work["evaluator_calls"] == 818
        for a, b in zip(loops, want):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.y, b.y)


def _cached_arrays(s):
    """Every array the state caches for its evaluations, its mode tables'
    sine constants included (the basis they refer to is not its own)."""
    modes = s.modes
    parts = [{k: getattr(s, k) for k in ("energies", "dt_coeffs")},
             {k: v for k, v in vars(modes).items() if k != "basis"}]
    if modes.sines is not None:
        parts.append(vars(modes.sines))
    return [v for part in parts for v in part.values() if isinstance(v, np.ndarray)]


class TestPlan:
    def test_built_once_per_state(self, monkeypatch):
        built = []

        class Counting(states.ModeTables):
            def __init__(self, basis, idx):
                built.append((basis, idx))
                super().__init__(basis, idx)

        monkeypatch.setattr(states, "ModeTables", Counting)
        s = _box9()
        rng = np.random.default_rng(600)
        for t in (0.0, 0.1, rng.uniform(0.0, 0.5, 3)):
            evaluate_at_2d(s, *_points(s, rng, 3), t)
        evaluate(s, 0.2)
        time_derivative(s, 0.2)
        list(flow._grid_rho(s, [0.0, 0.3]))
        assert len(built) == 1 and built[0][0] is s.basis and built[0][1] is s.indices
        assert s.modes is s.modes
        assert s.energies is s.energies and s.dt_coeffs is s.dt_coeffs

    def test_holds_no_table(self, state):
        K = state.indices.size
        arrays = _cached_arrays(state)
        assert arrays
        for a in arrays:
            assert max(a.shape, default=1) <= max(K, 2) and a.size <= 4 * K, a.shape

    def test_computed_arrays_are_read_only(self, state):
        for a in (state.energies, state.dt_coeffs):
            assert not a.flags.writeable

    def test_state_is_frozen(self, state):
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.indices = state.indices[:1]

    @pytest.mark.parametrize("kind", ["box9", "well"])
    def test_two_states_on_one_basis(self, kind):
        # two selections of one basis, evaluated in turn: each state's
        # cached tables serve that state only
        first = _box9() if kind == "box9" else _well()
        basis = first.basis
        second = _random_state(basis, [1, 4, basis.k - 1], 19)
        rng = np.random.default_rng(700)
        for _ in range(3):
            for s in (first, second, first):
                _assert_same(s, _points(s, rng, 4), rng.uniform(0.0, 0.5, 4))
                _assert_same(s, _points(s, rng, 4), float(rng.uniform(0.0, 0.5)))
