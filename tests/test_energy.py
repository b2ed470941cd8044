import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from madelung.energy import (
    EPS_NODE,
    classify_superoscillation,
    continuity_residual,
    decompose,
    decomposition_to_csv,
    energy_decomposition,
    hj_residual,
    mask_area,
    masks_to_csv,
    polar_fields,
)
from madelung.grids import ComplexField, Grid1D, Grid2D, ScalarField, integrate, integrate_masked
from madelung.spectral import Harmonic, InfiniteWell, eigenbasis, product_basis_2d, sample_potential
from madelung.states import Superposition, equal_two_mode, evaluate, superposition, time_derivative

E1 = math.pi**2 / 8.0
PERIOD = 2.0 * math.pi / (3.0 * E1)


@pytest.fixture(scope="module")
def well_basis():
    return eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, 2001), 4)


@pytest.fixture(scope="module")
def two_mode(well_basis):
    return equal_two_mode(well_basis, 0, 1)


@pytest.fixture(scope="module")
def ho_basis():
    return eigenbasis(Harmonic(10.0), Grid1D(-3.0, 3.0, 4001), 4)


@pytest.fixture(scope="module")
def ho_small():
    return eigenbasis(Harmonic(10.0), Grid1D(-3.0, 3.0, 1201), 3)


@pytest.fixture(scope="module")
def vortex_state():
    g1 = Grid1D(0.0, 1.0, 201)
    basis = product_basis_2d([(1, 2), (2, 1)], Grid2D(g1, g1))
    c = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    return Superposition(basis, c, np.array([0, 1]), {})


def vortex_on(n: int) -> Superposition:
    g1 = Grid1D(0.0, 1.0, n)
    basis = product_basis_2d([(1, 2), (2, 1)], Grid2D(g1, g1))
    c = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    return Superposition(basis, c, np.array([0, 1]), {})


class TestPolar:
    def test_plane_wave(self):
        g = Grid1D(0.0, 1.0, 501)
        k = 8.0 * math.pi
        vals = np.exp(1j * k * g.x)
        psi = ComplexField(g, vals)
        f = polar_fields(psi, ComplexField(g, -0.5j * k**2 * vals))
        m = f.node_mask
        assert m[2:-2].all() and not m[:2].any() and not m[-2:].any()
        np.testing.assert_allclose(f.grad_S[0].values[m], k, rtol=1e-3)
        np.testing.assert_allclose(-f.dSdt.values[m], k**2 / 2.0, rtol=1e-12)

    def test_plane_wave_ledger_exact_zeros(self):
        g = Grid1D(0.0, 1.0, 501)
        k = 8.0 * math.pi
        vals = np.exp(1j * k * g.x)
        f = polar_fields(ComplexField(g, vals), ComplexField(g, -0.5j * k**2 * vals))
        U = ScalarField(g, np.zeros(g.n))
        d = energy_decomposition(f, U, k**2 / 2.0)
        m = d.valid
        # constant R: curvature and symmetric kinetic term vanish identically
        assert np.abs(d.Q.values[m]).max() < 1e-9
        assert np.abs(d.K_s.values[m]).max() < 1e-9
        np.testing.assert_allclose(d.K_a.values[m], k**2 / 2.0, rtol=1e-3)
        sm = classify_superoscillation(d)
        assert not sm.forbidden_global.any()
        assert not sm.forbidden_local.any()

    def test_boundary_equality_unflagged(self):
        # constant state: Q, K_a, E_p, U all exactly zero, so every class
        # inequality sits exactly on its boundary and nothing is flagged
        g = Grid1D(0.0, 1.0, 101)
        ones = np.ones(g.n, dtype=complex)
        f = polar_fields(ComplexField(g, ones), ComplexField(g, np.zeros(g.n, dtype=complex)))
        d = energy_decomposition(f, ScalarField(g, np.zeros(g.n)), 0.0)
        sm = classify_superoscillation(d)
        for name in ("soft_qka", "hard_qka", "soft_qrkc", "hard_qrkc",
                     "forbidden_global", "forbidden_local"):
            assert not getattr(sm, name).any()

    def test_all_zero_rejected(self):
        g = Grid1D(0.0, 1.0, 11)
        z = ComplexField(g, np.zeros(11, dtype=complex))
        with pytest.raises(ValueError, match="zero"):
            polar_fields(z, z)

    def test_grid_mismatch_rejected(self):
        a = ComplexField(Grid1D(0.0, 1.0, 11), np.ones(11, dtype=complex))
        b = ComplexField(Grid1D(0.0, 2.0, 11), np.ones(11, dtype=complex))
        with pytest.raises(ValueError, match="grid"):
            polar_fields(a, b)

    def test_eigenstate_stationary(self, ho_basis):
        sp = superposition(ho_basis, [0], [1.0])
        f = polar_fields(evaluate(sp, 0.3), time_derivative(sp, 0.3))
        m = f.node_mask
        # zero up to rounding in the phase product, amplified by 1/rho
        assert np.abs(np.concatenate([c.values[m] for c in f.grad_S])).max() < 1e-9
        np.testing.assert_allclose(-f.dSdt.values[m], ho_basis.energies[0], rtol=1e-10)
        # gaussian tails drop below the relative density floor and are masked
        assert not m[0] and not m[-1]
        assert f.rho.values.max() * EPS_NODE > f.rho.values[2]

    def test_node_point_masked(self):
        g = Grid1D(0.0, 1.0, 201)
        vals = np.sin(2.0 * math.pi * g.x).astype(complex)
        E = 2.0 * math.pi**2
        f = polar_fields(ComplexField(g, vals), ComplexField(g, -1j * E * vals))
        i_node = 100
        assert math.isclose(g.x[i_node], 0.5)
        assert not f.node_mask[i_node]
        assert f.node_mask[i_node - 3] and f.node_mask[i_node + 3]
        assert np.isfinite(f.dSdt.values).all()

    def test_psi_gradient_once_per_frame(self, two_mode, vortex_state, monkeypatch):
        import madelung.energy as en
        from madelung.grids import gradient, gradient2d, partials

        calls = []
        monkeypatch.setattr(en, "partials",
                            lambda f: calls.append(f.grid.ndim) or partials(f))
        for s, want in ((two_mode, [1]), (vortex_state, [2])):
            calls.clear()
            psi = evaluate(s, 0.1)
            f = polar_fields(psi, time_derivative(s, 0.1))
            energy_decomposition(f, ScalarField(psi.grid, np.zeros(psi.values.shape)), 1.0)
            assert calls == want
            direct = (gradient(psi),) if want == [1] else gradient2d(psi)
            for got, ref in zip(f.grad_psi, direct, strict=True):
                assert np.array_equal(got.values, ref.values)


class TestLedger:
    def test_ho_ground_flatness(self, ho_basis):
        d = decompose(superposition(ho_basis, [0], [1.0]), 0.0)
        m = d.valid
        flat = d.Q.values[m] + d.U.values[m]
        np.testing.assert_allclose(flat, 5.0, atol=2e-2)

    def test_ho_ground_kc_ks_u_pointwise(self, ho_basis):
        d = decompose(superposition(ho_basis, [0], [1.0]), 0.0)
        m = d.valid
        # real state: k_a = 0 so k_c = k_s identically
        assert np.abs(d.k_a.values[m]).max() == 0.0
        np.testing.assert_allclose(d.k_c.values[m], d.k_s.values[m], rtol=0, atol=1e-15)
        scale = d.u.values[m].max()
        assert np.abs(d.k_s.values[m] - d.u.values[m]).max() < 1e-3 * scale

    def test_kc_sum_exact(self, well_basis, two_mode):
        d = decompose(two_mode, 0.31 * PERIOD)
        m = d.valid
        assert np.array_equal(d.K_c.values[m], d.K_a.values[m] + d.K_s.values[m])

    def test_q_splits_into_ks_plus_qr(self, two_mode):
        errs = []
        for n in (1001, 2001):
            basis = eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, n), 4)
            sp = equal_two_mode(basis, 0, 1)
            d = decompose(sp, 0.37 * PERIOD)
            m = d.valid
            errs.append(np.abs(d.Q.values[m] - d.K_s.values[m] - d.Q_r.values[m]).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.5)

    def test_qr_integral_zero_well(self):
        basis = eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, 8001), 4)
        d = decompose(equal_two_mode(basis, 0, 1), 0.0)
        assert abs(integrate(d.q_r)) < 1e-8

    def test_qr_integral_zero_ho(self):
        basis = eigenbasis(Harmonic(10.0), Grid1D(-3.0, 3.0, 8001), 4)
        d = decompose(equal_two_mode(basis, 0, 2), 0.1)
        assert abs(integrate(d.q_r)) < 1e-8

    def test_eigenstate_ks_plus_u_is_energy(self):
        basis = eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, 64001), 3)
        d = decompose(superposition(basis, [1], [1.0]), 0.0)
        total = integrate(d.k_s) + integrate(d.u)
        assert abs(total - basis.energies[1]) < 1e-6

    def test_ep_integral_is_energy_expectation(self, well_basis):
        sp = superposition(well_basis, [0, 1], [0.8, 0.6j])
        d = decompose(sp, 0.4 * PERIOD)
        expect = 0.64 * well_basis.energies[0] + 0.36 * well_basis.energies[1]
        assert abs(integrate(d.e_p) - expect) < 1e-6

    def test_density_forms_match_divided_forms(self, two_mode):
        d = decompose(two_mode, 0.22 * PERIOD)
        m = d.valid
        for dens, per in ((d.q, d.Q), (d.k_s, d.K_s), (d.q_r, d.Q_r), (d.e_p, d.E_p)):
            np.testing.assert_allclose(dens.values[m], d.rho.values[m] * per.values[m],
                                       rtol=1e-10, atol=1e-13)


class TestResiduals:
    def test_hj_eigenstate_small_and_refining(self):
        errs = []
        for n in (1001, 2001):
            basis = eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, n), 3)
            d = decompose(superposition(basis, [0], [1.0]), 0.0)
            r = hj_residual(d)
            errs.append(np.abs(r.values[r.mask]).max())
        assert errs[0] < 1e-3
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.5)

    def test_hj_two_mode_convergence(self):
        errs = []
        for n in (1001, 2001):
            basis = eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, n), 4)
            d = decompose(equal_two_mode(basis, 0, 1), PERIOD / 8.0)
            r = hj_residual(d)
            errs.append(np.abs(r.values[r.mask]).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.5)

    def test_continuity_eigenstate_machine_level(self, well_basis):
        sp = superposition(well_basis, [2], [1.0])
        r = continuity_residual(sp, 0.2, 1e-3)
        assert np.abs(r.values[r.mask]).max() < 1e-10

    def test_continuity_two_mode_joint_refinement(self):
        errs = []
        for n, dt in ((1001, 2e-3 * PERIOD), (2001, 1e-3 * PERIOD)):
            basis = eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, n), 4)
            r = continuity_residual(equal_two_mode(basis, 0, 1), 0.29 * PERIOD, dt)
            errs.append(np.abs(r.values[r.mask]).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.8)


class TestVortex2D:
    def test_ep_exact_everywhere(self, vortex_state):
        d = decompose(vortex_state, 0.17)
        m = d.valid
        E = 2.5 * math.pi**2
        np.testing.assert_allclose(d.E_p.values[m], E, rtol=1e-12)

    def test_hj_convergence_2d(self):
        # measured away from the vortex core, where K_a stays bounded; the
        # near-core residual is dominated by the 1/r^2 blowup instead
        errs = []
        for n in (61, 121):
            d = decompose(vortex_on(n), 0.0)
            r = hj_residual(d)
            X, Y = r.grid.mesh()
            away = r.mask & ((X - 0.5) ** 2 + (Y - 0.5) ** 2 > 0.1**2)
            errs.append(np.abs(r.values[away]).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.8)

    def test_continuity_stationary_2d(self):
        errs = []
        for n in (61, 121):
            r = continuity_residual(vortex_on(n), 0.05, 1e-3)
            errs.append(np.abs(r.values[r.mask]).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.8)

    def test_q_split_2d(self, vortex_state):
        d = decompose(vortex_state, 0.0)
        m = d.valid
        err = np.abs(d.Q.values[m] - d.K_s.values[m] - d.Q_r.values[m]).max()
        assert err < 0.35 * np.abs(d.Q.values[m]).max()


class TestClassification:
    def test_real_eigenstate_sets_coincide(self, ho_basis):
        sp = superposition(ho_basis, [2], [1.0])
        d = decompose(sp, 0.0)
        sm = classify_superoscillation(d)
        head = d.E_plus - d.U.values
        # zero flow: the hard set is exactly the classically forbidden set
        assert np.array_equal(sm.hard_qka, sm.forbidden_global)
        assert sm.forbidden_global.any()
        # away from turning points (stencil error in Q) and interior nodes
        # (|psi| kinks, so discrete Q dives there) the soft set matches too
        clear = (sm.valid & (np.abs(head) > 0.05)
                 & (d.rho.values > 1e-3 * d.rho.values.max()))
        assert np.array_equal(sm.soft_qka[clear], sm.forbidden_global[clear])

    def test_two_mode_hard_near_node_time(self, well_basis):
        sp = equal_two_mode(well_basis, 0, 1)
        d = decompose(sp, PERIOD / 3.0 - 0.002 * PERIOD)
        sm = classify_superoscillation(d)
        assert sm.hard_qka.any()
        assert not sm.forbidden_global.any()
        assert mask_area(d.grid, sm.soft_qka) > 0.0

    def test_forbidden_subsets(self, ho_basis):
        for t in (0.0, 0.013, 0.05):
            sp = superposition(ho_basis, [0, 3], [0.6, 0.8])
            d = decompose(sp, t)
            sm = classify_superoscillation(d)
            assert not (sm.forbidden_global & ~sm.hard_qka).any()
            assert not (sm.forbidden_local & ~sm.soft_qka).any()

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(0.1, 0.9),
        phase=st.floats(0.0, 2.0 * math.pi),
        t=st.floats(0.0, 0.63),
    )
    def test_forbidden_subsets_property(self, ho_small, a, phase, t):
        b = math.sqrt(1.0 - a * a)
        sp = superposition(ho_small, [0, 2], [a, b * np.exp(1j * phase)])
        d = decompose(sp, t)
        sm = classify_superoscillation(d)
        assert not (sm.forbidden_global & ~sm.hard_qka).any()
        assert not (sm.forbidden_local & ~sm.soft_qka).any()

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: near a turning point the O(h^2) Hamilton-Jacobi "
        "error of the stencil Q outweighs |Q|, so 2 points of forbidden_local "
        "fall outside soft_qka; exact mode derivatives mend it"))
    def test_forbidden_subsets_recorded_case(self, ho_small):
        # the input Hypothesis once drew for test_forbidden_subsets_property,
        # replayed on every machine
        a, phase, t = 0.1764174303279145, 0.7578125, 0.5032186479225094
        sp = superposition(ho_small, [0, 2], [a, math.sqrt(1.0 - a * a) * np.exp(1j * phase)])
        sm = classify_superoscillation(decompose(sp, t))
        assert not (sm.forbidden_global & ~sm.hard_qka).any()
        assert not (sm.forbidden_local & ~sm.soft_qka).any()


class TestExports:
    def test_decomposition_csv(self, well_basis, two_mode, tmp_path):
        d = decompose(two_mode, 0.1 * PERIOD)
        p = tmp_path / "ledger.csv"
        decomposition_to_csv(d, str(p))
        rows = p.read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header[0] == "x" and "Q" in header and "q_r" in header and header[-1] == "valid"
        assert len(rows) == 1 + d.grid.n

    def test_masks_csv(self, well_basis, two_mode, tmp_path):
        d = decompose(two_mode, PERIOD / 3.0 - 0.002 * PERIOD)
        sm = classify_superoscillation(d)
        p = tmp_path / "masks.csv"
        masks_to_csv(sm, str(p))
        rows = p.read_text().strip().splitlines()
        assert rows[0].split(",")[1] == "soft_qka"
        flagged = sum(int(r.split(",")[2]) for r in rows[1:])
        assert flagged == int(sm.hard_qka.sum())

    def test_tables_match_row_loop_writer(self, two_mode, vortex_state, tmp_path):
        # the csv.writer row loops the column writer replaced, LF-terminated
        def row_loop(path, names, cols, flags):
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(names)
                for i in range(len(cols[0])):
                    w.writerow([f"{c[i]:.17g}" for c in cols] + [int(f[i]) for f in flags])

        for d in (decompose(two_mode, 0.1 * PERIOD), decompose(vortex_state, 0.0)):
            sm = classify_superoscillation(d)
            if d.grid.ndim == 1:
                coords = ["x"], [d.grid.x]
            else:
                coords = ["x", "y"], [c.ravel() for c in d.grid.mesh()]
            fields = ["Q", "K_a", "K_s", "Q_r", "K_c", "E_p", "K_cl", "U",
                      "q", "k_a", "k_s", "q_r", "k_c", "e_p", "u", "rho"]
            flags = ["soft_qka", "hard_qka", "soft_qrkc", "hard_qrkc",
                     "forbidden_global", "forbidden_local"]
            row_loop(tmp_path / "d_ref.csv", coords[0] + fields + ["valid"],
                     coords[1] + [getattr(d, n).values.ravel() for n in fields],
                     [d.valid.ravel()])
            row_loop(tmp_path / "m_ref.csv", coords[0] + flags + ["valid"], coords[1],
                     [getattr(sm, n).ravel() for n in flags + ["valid"]])
            decomposition_to_csv(d, str(tmp_path / "d.csv"))
            masks_to_csv(sm, str(tmp_path / "m.csv"))
            for name in ("d", "m"):
                want = (tmp_path / f"{name}_ref.csv").read_bytes()
                assert (tmp_path / f"{name}.csv").read_bytes() == want

    def test_mask_area_2d(self, vortex_state):
        d = decompose(vortex_state, 0.0)
        sm = classify_superoscillation(d)
        a = mask_area(d.grid, sm.valid)
        assert 0.0 < a < 1.0
