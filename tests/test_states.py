"""Superposition evolution, projection, and off-grid evaluation tests."""

import math

import numpy as np
import pytest

from madelung.energy import _laplacian
from madelung.grids import Grid1D, Grid2D, quadrature
from madelung.spectral import (
    Harmonic,
    InfiniteWell,
    WellWithBarrier,
    eigenbasis,
    product_basis_2d,
    sample_potential,
)
from madelung.states import (
    Superposition,
    WavepacketSpec,
    band_limit,
    cap_modes,
    equal_two_mode,
    evaluate,
    evaluate_at,
    evaluate_at_2d,
    leaked_norm,
    project_field,
    project_gaussian,
    superposition,
    time_derivative,
)

E1 = math.pi**2 / 8.0
PERIOD = 2.0 * math.pi / (3.0 * E1)  # two-mode well state period 2 pi / (E2 - E1)

# widths frozen by the calibration sweep (see TestCalibration)
SIGMA_REFLECTION = 0.08
SIGMA_MZI = 0.23


@pytest.fixture(scope="module")
def well_basis():
    return eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, 2001), 4)


@pytest.fixture(scope="module")
def two_mode(well_basis):
    return equal_two_mode(well_basis)


class TestConstruction:
    def test_norm_enforced(self, well_basis):
        with pytest.raises(ValueError, match="normalized"):
            Superposition(well_basis, np.array([1.0, 1.0]), np.array([0, 1]))

    def test_normalize_flag(self, well_basis):
        s = superposition(well_basis, [0, 1], [1.0, 1.0], normalize=True)
        assert np.sum(np.abs(s.coeffs) ** 2) == pytest.approx(1.0, abs=1e-15)

    def test_bad_index(self, well_basis):
        with pytest.raises(ValueError, match="index"):
            superposition(well_basis, [0, 99], [0.6, 0.8])

    def test_duplicate_index(self, well_basis):
        with pytest.raises(ValueError, match="duplicate"):
            superposition(well_basis, [1, 1], [0.6, 0.8])


class TestEvaluate:
    def test_stationary_density(self, well_basis):
        s = superposition(well_basis, [2], [1.0])
        rho0 = np.abs(evaluate(s, 0.0).values) ** 2
        rho1 = np.abs(evaluate(s, 0.37).values) ** 2
        assert np.allclose(rho0, rho1, atol=1e-14)

    def test_center_value_t0(self, two_mode):
        # cos-like ground state at x=0 contributes 1/sqrt(2), sin term vanishes
        psi = evaluate(two_mode, 0.0)
        mid = psi.values[two_mode.grid.n // 2]
        assert mid == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_periodicity_global_phase(self, two_mode):
        a = evaluate(two_mode, 0.0).values
        b = evaluate(two_mode, PERIOD).values
        phase = np.exp(-1j * E1 * PERIOD)
        assert np.allclose(b, phase * a, atol=1e-10)
        rho_a, rho_b = np.abs(a) ** 2, np.abs(b) ** 2
        assert np.abs(rho_a - rho_b).max() < 1e-10

    def test_norm_conservation(self, two_mode):
        for t in (0.0, 0.2, 1.1, PERIOD):
            rho = np.abs(evaluate(two_mode, t).values) ** 2
            assert quadrature(two_mode.grid, rho) == pytest.approx(1.0, abs=1e-8)


class TestTimeDerivative:
    def test_eigenstate_relation(self, well_basis):
        s = superposition(well_basis, [1], [1.0])
        psi = evaluate(s, 0.4).values
        dpsi = time_derivative(s, 0.4).values
        assert np.allclose(dpsi, -1j * well_basis.energies[1] * psi, atol=1e-13)

    def test_finite_difference_oracle(self, two_mode):
        t, d = 0.3, 1e-5
        fd = (evaluate(two_mode, t + d).values - evaluate(two_mode, t - d).values) / (2 * d)
        an = time_derivative(two_mode, t).values
        assert np.abs(fd - an).max() < 1e-8

    def test_schrodinger_residual_analytic_basis(self, two_mode):
        # i dPsi/dt + (1/2) lap Psi - U Psi -> 0 at O(h^2); U = 0 in the well
        errs = []
        for n in (1001, 2001):
            basis = eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, n), 2)
            s = equal_two_mode(basis)
            psi = evaluate(s, 0.2).values
            res = 1j * time_derivative(s, 0.2).values + 0.5 * _laplacian(basis.grid, psi[None])[0]
            errs.append(np.abs(res[2:-2]).max())
        assert errs[0] / errs[1] > 3.0

    def test_schrodinger_residual_numeric_basis(self):
        # numeric eigenpairs satisfy the discrete equation essentially exactly
        g = Grid1D(-1.0, 1.0, 1201)
        basis = eigenbasis(WellWithBarrier(1.0, 15.0, 0.2), g, 2)
        s = equal_two_mode(basis)
        u = sample_potential(WellWithBarrier(1.0, 15.0, 0.2), g).values
        psi = evaluate(s, 0.15).values
        res = 1j * time_derivative(s, 0.15).values + 0.5 * _laplacian(g, psi[None])[0] - u * psi
        assert np.abs(res[2:-2]).max() < 1e-7


class TestBandLimit:
    def test_two_mode_well(self, two_mode):
        assert band_limit(two_mode) == pytest.approx(4.0 * E1, rel=1e-14)

    def test_single_state(self, well_basis):
        s = superposition(well_basis, [3], [1.0])
        assert band_limit(s) == pytest.approx(well_basis.energies[3])

    def test_ho_pair(self):
        basis = eigenbasis(Harmonic(10.0), Grid1D(-3.0, 3.0, 1501), 2)
        assert band_limit(equal_two_mode(basis)) == pytest.approx(15.0)


@pytest.fixture(scope="module", params=["well", "hermite", "interpolated"])
def offgrid_state(request, two_mode):
    """One superposition per mode-table kind: analytic well, Hermite, and
    the cubic interpolation used for finite-difference bases."""
    if request.param == "well":
        return two_mode
    if request.param == "hermite":
        basis = eigenbasis(Harmonic(10.0), Grid1D(-3.0, 3.0, 1501), 3)
    else:
        basis = eigenbasis(WellWithBarrier(1.0, 15.0, 0.2), Grid1D(-1.0, 1.0, 2001), 3)
    return superposition(basis, [0, 1, 2], [0.6, 0.48j, 0.64])


class TestEvaluateAt:
    def test_matches_grid_well(self, two_mode):
        g = two_mode.grid
        sub = g.x[::97]
        direct = evaluate(two_mode, 0.7).values[::97]
        offgrid = evaluate_at(two_mode, sub, 0.7)[0]
        assert np.allclose(offgrid, direct, atol=1e-12)

    def test_matches_grid_hermite(self):
        basis = eigenbasis(Harmonic(10.0), Grid1D(-3.0, 3.0, 1501), 3)
        s = superposition(basis, [0, 2], [0.6, 0.8])
        direct = evaluate(s, 0.3).values[::55]
        offgrid = evaluate_at(s, basis.grid.x[::55], 0.3)[0]
        assert np.allclose(offgrid, direct, atol=1e-12)

    def test_interp_numeric_basis(self):
        g = Grid1D(-1.0, 1.0, 2001)
        basis = eigenbasis(WellWithBarrier(1.0, 15.0, 0.2), g, 2)
        s = equal_two_mode(basis)
        xq = np.array([-0.731, -0.25, 0.0004, 0.5003])
        got = evaluate_at(s, xq, 0.2)[0]
        # oracle: dense evaluation + local comparison on the exact grid points
        near = evaluate_at(s, np.round((xq - g.x_min) / g.h) * g.h + g.x_min, 0.2)[0]
        assert np.abs(got - near).max() < 5e-3
        on_grid = evaluate_at(s, g.x[::211], 0.2)[0]
        assert np.allclose(on_grid, evaluate(s, 0.2).values[::211], atol=1e-9)

    def test_dx_against_fd(self, two_mode):
        x = np.array([-0.4, 0.1, 0.33])
        d = 1e-6
        fd = (evaluate_at(two_mode, x + d, 0.5)[0] - evaluate_at(two_mode, x - d, 0.5)[0]) / (2 * d)
        an = evaluate_at(two_mode, x, 0.5)[1]
        assert np.abs(fd - an).max() < 1e-7

    def test_psi_and_dt_match_grid(self, offgrid_state):
        s = offgrid_state
        x = s.grid.x[1:-1:37]
        psi, _, dpsi_dt = evaluate_at(s, x, 0.37)
        want_psi = evaluate(s, 0.37).values[1:-1:37]
        want_dt = time_derivative(s, 0.37).values[1:-1:37]
        assert np.abs(psi - want_psi).max() < 1e-12 * np.abs(want_psi).max()
        assert np.abs(dpsi_dt - want_dt).max() < 1e-12 * np.abs(want_dt).max()

    def test_dx_against_central_difference(self, offgrid_state):
        s = offgrid_state
        g = s.grid
        # mid-cell points, so the interpolated basis stays on one cubic piece
        x = g.x[100:-100:173] + 0.5 * g.h
        d = 1e-6
        fd = (evaluate_at(s, x + d, 0.21)[0] - evaluate_at(s, x - d, 0.21)[0]) / (2 * d)
        an = evaluate_at(s, x, 0.21)[1]
        assert np.abs(fd - an).max() < 1e-7 * np.abs(an).max()

    def test_paired_times_match_pointwise(self, offgrid_state):
        # paired and one-point calls share one contraction: equal bits
        s = offgrid_state
        x = np.linspace(s.grid.x_min + 0.1, s.grid.x_max - 0.1, 7)
        t = np.linspace(0.0, 0.9, 7)
        paired = evaluate_at(s, x, t)
        for i in range(x.size):
            for got, want in zip(paired, evaluate_at(s, float(x[i]), float(t[i]))):
                assert got[i] == want

    @pytest.mark.parametrize("potential", [InfiniteWell(1.0), WellWithBarrier(1.0, 15.0, 0.2)])
    def test_paired_times_match_pointwise_many_modes(self, potential):
        # 60 modes: a contraction off the BLAS dot path sums in another
        # order, which a few modes do not show
        basis = eigenbasis(potential, Grid1D(-1.0, 1.0, 2001), 60)
        rng = np.random.default_rng(3)
        s = superposition(basis, np.arange(60), rng.normal(size=60) + 1j * rng.normal(size=60),
                          normalize=True)
        x, t = rng.uniform(-0.9, 0.9, 40), rng.uniform(0.0, 1.0, 40)
        paired = evaluate_at(s, x, t)
        for i in range(x.size):
            for got, want in zip(paired, evaluate_at(s, float(x[i]), float(t[i]))):
                assert got[i] == want

    def test_2d_product_state(self):
        g1 = Grid1D(0.0, 1.0, 201)
        basis = product_basis_2d([(1, 2), (2, 1)], Grid2D(g1, g1))
        s = superposition(basis, [0, 1], [1 / math.sqrt(2), 1j / math.sqrt(2)])
        val = evaluate_at_2d(s, 0.5, 0.5, 0.0)[0]
        assert abs(val) < 1e-14  # node at the center
        # gradient nonzero at the node (first-order zero)
        _, gx, gy = evaluate_at_2d(s, 0.5, 0.5, 0.0)
        assert abs(gx) > 1.0 and abs(gy) > 1.0
        # off-node value matches the grid evaluation
        direct = evaluate(s, 0.0).values[50, 120]
        assert evaluate_at_2d(s, g1.x[50], g1.x[120], 0.0)[0] == pytest.approx(direct, abs=1e-12)

    def test_evaluators_refuse_the_other_dimension(self, two_mode):
        g1 = Grid1D(0.0, 1.0, 41)
        box = superposition(product_basis_2d([(1, 2)], Grid2D(g1, g1)), [0], [1.0])
        with pytest.raises(ValueError, match="use evaluate_at$"):
            evaluate_at_2d(two_mode, 0.5, 0.5, 0.0)
        with pytest.raises(ValueError, match="use evaluate_at_2d$"):
            evaluate_at(box, 0.5, 0.0)

    def test_2d_paired_times_match_pointwise(self):
        g1 = Grid1D(0.0, 1.0, 201)
        basis = product_basis_2d([(1, 2), (2, 1), (2, 3)], Grid2D(g1, g1))
        s = superposition(basis, [0, 1, 2], [0.6, 0.48j, 0.64])
        x, y, t = np.linspace(0.1, 0.9, 5), np.linspace(0.8, 0.2, 5), np.linspace(0.0, 0.4, 5)
        paired = evaluate_at_2d(s, x, y, t)
        for i in range(x.size):
            for got, want in zip(paired, evaluate_at_2d(s, float(x[i]), float(y[i]), float(t[i]))):
                assert got[i] == want


class TestProjection:
    def test_parity_selection(self):
        # momentum-free centered packet in a symmetric well: even modes
        # (odd parity about the center) drop out
        basis = eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, 2001), 6)
        sp = project_gaussian(basis, WavepacketSpec(0.0, 0.0, 0.2), eta=1e-6)
        kept = set(sp.indices.tolist())
        assert 1 not in kept and 3 not in kept and 5 not in kept
        assert 0 in kept

    def test_reflection_band_limit(self):
        basis = eigenbasis(InfiniteWell(0.5), Grid1D(-0.5, 0.5, 2001), 40)
        sp = project_gaussian(basis, WavepacketSpec(0.0, 25.0, SIGMA_REFLECTION))
        assert sp.meta["truncation_index"] == 18
        assert np.sum(np.abs(sp.coeffs) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_mzi_band_limit(self):
        # The interferometer packet brushes the near wall (amplitude ~0.027
        # at x=-2), so coefficients carry a 1/k component from the wall
        # discontinuity on top of the Gaussian band.  That tail pins the
        # minimum eta-truncation index at 90 across all widths: the band
        # edge cannot retreat past mode 90 before the tail crosses the
        # threshold.  Frozen width 0.23 sits mid-plateau of that minimum.
        basis = eigenbasis(InfiniteWell(2.0), Grid1D(-2.0, 2.0, 4001), 120)
        sp = project_gaussian(basis, WavepacketSpec(-1.0, 60.0, SIGMA_MZI))
        assert sp.meta["truncation_index"] == 90
        assert np.sum(np.abs(sp.coeffs) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_mzi_band_cap(self):
        # the scenario pins the pulse to the first 89 modes; the capped-off
        # mode 90 holds only ~5e-7 probability
        basis = eigenbasis(InfiniteWell(2.0), Grid1D(-2.0, 2.0, 4001), 120)
        sp = cap_modes(project_gaussian(basis, WavepacketSpec(-1.0, 60.0, SIGMA_MZI)), 89)
        assert sp.meta["truncation_index"] == 89
        assert sp.meta["cap_dropped_norm"] < 1e-5
        assert np.sum(np.abs(sp.coeffs) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_project_field_round_trip(self):
        # projecting a superposition's own grid values recovers its coefficients
        basis = eigenbasis(InfiniteWell(0.5), Grid1D(-0.5, 0.5, 2001), 40)
        sp = project_gaussian(basis, WavepacketSpec(0.0, 25.0, SIGMA_REFLECTION))
        back = project_field(basis, evaluate(sp, 0.0).values, eta=1e-3)
        assert np.array_equal(back.indices, sp.indices)
        np.testing.assert_allclose(back.coeffs, sp.coeffs, atol=1e-9)

    def test_leak_rejection(self):
        basis = eigenbasis(InfiniteWell(0.5), Grid1D(-0.5, 0.5, 1001), 10)
        with pytest.raises(ValueError, match="leak"):
            project_gaussian(basis, WavepacketSpec(0.45, 0.0, 0.2))

    def test_leaked_norm_value(self):
        # packet at center, sigma = 0.08, walls at +-0.5: tail mass ~ 4e-10
        lk = leaked_norm(WavepacketSpec(0.0, 25.0, SIGMA_REFLECTION), Grid1D(-0.5, 0.5, 11))
        assert lk == pytest.approx(2.0 * 0.5 * math.erfc(0.5 / (0.08 * math.sqrt(2.0))), rel=1e-12)
        assert lk < 1e-9

    def test_captured_norm_reported(self):
        basis = eigenbasis(InfiniteWell(0.5), Grid1D(-0.5, 0.5, 2001), 40)
        sp = project_gaussian(basis, WavepacketSpec(0.0, 25.0, SIGMA_REFLECTION))
        assert 0.99 < sp.meta["captured_norm"] <= 1.0 + 1e-12


def _truncation_indices(basis, center, momentum, widths) -> list:
    return [project_gaussian(basis, WavepacketSpec(center, momentum, w)).meta["truncation_index"]
            for w in widths]


def _neighbours(sweep, width) -> tuple:
    # the swept widths on either side of width
    return sweep[sweep <= width][-1], sweep[sweep >= width][0]


class TestCalibration:
    """The frozen widths sit inside, not at the edge of, the window of
    widths whose eta cut keeps the stock mode count: on a geometric sweep
    of widths, the swept widths on either side of each keep that count."""

    def test_reflection_window_contains_frozen_sigma(self):
        basis = eigenbasis(InfiniteWell(0.5), Grid1D(-0.5, 0.5, 2001), 40)
        widths = _neighbours(np.geomspace(0.05, 0.12, 60), SIGMA_REFLECTION)
        assert _truncation_indices(basis, 0.0, 25.0, widths) == [18, 18]

    def test_mzi_window_contains_frozen_sigma(self):
        basis = eigenbasis(InfiniteWell(2.0), Grid1D(-2.0, 2.0, 4001), 120)
        widths = _neighbours(np.geomspace(0.2, 0.32, 40), SIGMA_MZI)
        assert _truncation_indices(basis, -1.0, 60.0, widths) == [90, 90]

    def test_mzi_index_89_unreachable(self):
        # wall-tail floor: no width reaches eta-index 89 (see test_mzi_band_limit)
        basis = eigenbasis(InfiniteWell(2.0), Grid1D(-2.0, 2.0, 4001), 120)
        indices = _truncation_indices(basis, -1.0, 60.0, np.geomspace(0.16, 0.32, 80))
        assert min(indices) == 90
