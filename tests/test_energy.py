import csv
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from madelung import scenarios as sc
from madelung.energy import (
    EPS_NODE,
    EQ_TOL,
    continuity_residual,
    decompose,
    decomposition_to_csv,
    frame_ledger,
    hj_residual,
    ledger,
    mask_area,
    masks_to_csv,
)
from madelung.grids import Grid1D, Grid2D, quadrature
from madelung.spectral import Harmonic, InfiniteWell, eigenbasis, product_basis_2d, sample_potential
from madelung.states import (
    Superposition,
    band_limit,
    equal_two_mode,
    evaluate,
    superposition,
    time_derivative,
)

E1 = math.pi**2 / 8.0
LEDGER_COLS = ("Q", "K_a", "K_s", "Q_r", "K_c", "E_p", "K_cl", "U",
               "q", "k_a", "k_s", "q_r", "k_c", "e_p", "u", "rho")
MASK_COLS = ("soft_qka", "hard_qka", "soft_qrkc", "hard_qrkc",
             "forbidden_global", "forbidden_local")
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


def one_frame(g, psi, dpsidt, U, E_plus) -> dict:
    """ledger of a single frame, every column with its frame axis dropped."""
    return {k: v[0] for k, v in ledger(g, psi[None], dpsidt[None], U, [E_plus]).items()}


class TestPolar:
    def test_plane_wave(self):
        g = Grid1D(0.0, 1.0, 501)
        k = 8.0 * math.pi
        vals = np.exp(1j * k * g.x)
        c = one_frame(g, vals, -0.5j * k**2 * vals, np.zeros(g.n), k**2 / 2.0)
        m = c["valid"]
        assert m[2:-2].all() and not m[:2].any() and not m[-2:].any()
        # |grad S| = sqrt(2 K_a) and E_p = -dS/dt
        np.testing.assert_allclose(np.sqrt(2.0 * c["K_a"][m]), k, rtol=1e-3)
        np.testing.assert_allclose(c["E_p"][m], k**2 / 2.0, rtol=1e-12)

    def test_plane_wave_ledger_exact_zeros(self):
        g = Grid1D(0.0, 1.0, 501)
        k = 8.0 * math.pi
        vals = np.exp(1j * k * g.x)
        c = one_frame(g, vals, -0.5j * k**2 * vals, np.zeros(g.n), k**2 / 2.0)
        m = c["valid"]
        # constant R: curvature and symmetric kinetic term vanish identically
        assert np.abs(c["Q"][m]).max() < 1e-9
        assert np.abs(c["K_s"][m]).max() < 1e-9
        np.testing.assert_allclose(c["K_a"][m], k**2 / 2.0, rtol=1e-3)
        assert not c["forbidden_global"].any()
        assert not c["forbidden_local"].any()

    def test_boundary_equality_unflagged(self):
        # constant state: Q, K_a, E_p, U all exactly zero, so every class
        # inequality sits exactly on its boundary and nothing is flagged
        g = Grid1D(0.0, 1.0, 101)
        ones = np.ones(g.n, dtype=complex)
        c = one_frame(g, ones, np.zeros(g.n, dtype=complex), np.zeros(g.n), 0.0)
        for name in ("soft_qka", "hard_qka", "soft_qrkc", "hard_qrkc",
                     "forbidden_global", "forbidden_local"):
            assert not c[name].any()

    def test_all_zero_rejected(self):
        g = Grid1D(0.0, 1.0, 11)
        z = np.zeros(11, dtype=complex)
        with pytest.raises(ValueError, match="zero"):
            one_frame(g, z, z, np.zeros(11), 0.0)

    def test_grid_mismatch_rejected(self):
        g = Grid1D(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="grid"):
            one_frame(g, np.ones(11, dtype=complex), np.ones(12, dtype=complex),
                      np.zeros(11), 0.0)

    def test_eigenstate_stationary(self, ho_basis):
        sp = superposition(ho_basis, [0], [1.0])
        c = {k: v[0] for k, v in frame_ledger([sp], [0.3]).items()}
        m = c["valid"]
        # |grad S| zero up to rounding in the phase product, amplified by 1/rho
        assert np.sqrt(2.0 * c["K_a"][m]).max() < 1e-9
        np.testing.assert_allclose(c["E_p"][m], ho_basis.energies[0], rtol=1e-10)
        # gaussian tails drop below the relative density floor and are masked
        assert not m[0] and not m[-1]
        assert c["rho"].max() * EPS_NODE > c["rho"][2]

    def test_node_point_masked(self):
        g = Grid1D(0.0, 1.0, 201)
        vals = np.sin(2.0 * math.pi * g.x).astype(complex)
        E = 2.0 * math.pi**2
        c = one_frame(g, vals, -1j * E * vals, np.zeros(g.n), E)
        i_node = 100
        assert math.isclose(g.x[i_node], 0.5)
        assert not c["valid"][i_node]
        assert c["valid"][i_node - 3] and c["valid"][i_node + 3]
        assert np.isfinite(c["E_p"]).all()

    def test_psi_gradient_once_per_frame(self, two_mode, vortex_state, monkeypatch):
        # one first-derivative stencil per grid axis for a whole stack of
        # frames: K_c and grad S share the partials of psi
        import madelung.energy as en

        calls = []
        d1 = en._d1
        monkeypatch.setattr(en, "_d1", lambda v, h: calls.append(v.shape) or d1(v, h))
        for s, ndim in ((two_mode, 1), (vortex_state, 2)):
            calls.clear()
            frame_ledger([s] * 3, [0.1, 0.2, 0.3])
            assert len(calls) == ndim
            assert all(3 in shape for shape in calls)


class TestLedger:
    def test_ho_ground_flatness(self, ho_basis):
        d = decompose(superposition(ho_basis, [0], [1.0]), 0.0)
        m = d.valid
        flat = d.Q[m] + d.U[m]
        np.testing.assert_allclose(flat, 5.0, atol=2e-2)

    def test_ho_ground_kc_ks_u_pointwise(self, ho_basis):
        d = decompose(superposition(ho_basis, [0], [1.0]), 0.0)
        m = d.valid
        # real state: k_a = 0 so k_c = k_s identically
        assert np.abs(d.k_a[m]).max() == 0.0
        np.testing.assert_allclose(d.k_c[m], d.k_s[m], rtol=0, atol=1e-15)
        scale = d.u[m].max()
        assert np.abs(d.k_s[m] - d.u[m]).max() < 1e-3 * scale

    def test_kc_sum_exact(self, well_basis, two_mode):
        d = decompose(two_mode, 0.31 * PERIOD)
        m = d.valid
        assert np.array_equal(d.K_c[m], d.K_a[m] + d.K_s[m])

    def test_q_splits_into_ks_plus_qr(self, two_mode):
        errs = []
        for n in (1001, 2001):
            basis = eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, n), 4)
            sp = equal_two_mode(basis, 0, 1)
            d = decompose(sp, 0.37 * PERIOD)
            m = d.valid
            errs.append(np.abs(d.Q[m] - d.K_s[m] - d.Q_r[m]).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.5)

    def test_qr_integral_zero_well(self):
        basis = eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, 8001), 4)
        d = decompose(equal_two_mode(basis, 0, 1), 0.0)
        assert abs(quadrature(d.grid, d.q_r)) < 1e-8

    def test_qr_integral_zero_ho(self):
        basis = eigenbasis(Harmonic(10.0), Grid1D(-3.0, 3.0, 8001), 4)
        d = decompose(equal_two_mode(basis, 0, 2), 0.1)
        assert abs(quadrature(d.grid, d.q_r)) < 1e-8

    def test_eigenstate_ks_plus_u_is_energy(self):
        basis = eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, 64001), 3)
        d = decompose(superposition(basis, [1], [1.0]), 0.0)
        total = quadrature(d.grid, d.k_s) + quadrature(d.grid, d.u)
        assert abs(total - basis.energies[1]) < 1e-6

    def test_ep_integral_is_energy_expectation(self, well_basis):
        sp = superposition(well_basis, [0, 1], [0.8, 0.6j])
        d = decompose(sp, 0.4 * PERIOD)
        expect = 0.64 * well_basis.energies[0] + 0.36 * well_basis.energies[1]
        assert abs(quadrature(d.grid, d.e_p) - expect) < 1e-6

    def test_density_forms_match_divided_forms(self, two_mode):
        d = decompose(two_mode, 0.22 * PERIOD)
        m = d.valid
        for dens, per in ((d.q, d.Q), (d.k_s, d.K_s), (d.q_r, d.Q_r), (d.e_p, d.E_p)):
            np.testing.assert_allclose(dens[m], d.rho[m] * per[m],
                                       rtol=1e-10, atol=1e-13)


class TestResiduals:
    def test_hj_eigenstate_small_and_refining(self):
        errs = []
        for n in (1001, 2001):
            basis = eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, n), 3)
            d = decompose(superposition(basis, [0], [1.0]), 0.0)
            r, ok = hj_residual(d)
            errs.append(np.abs(r[ok]).max())
        assert errs[0] < 1e-3
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.5)

    def test_hj_two_mode_convergence(self):
        errs = []
        for n in (1001, 2001):
            basis = eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, n), 4)
            d = decompose(equal_two_mode(basis, 0, 1), PERIOD / 8.0)
            r, ok = hj_residual(d)
            errs.append(np.abs(r[ok]).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.5)

    def test_continuity_eigenstate_machine_level(self, well_basis):
        sp = superposition(well_basis, [2], [1.0])
        r, ok = continuity_residual(sp, 0.2, 1e-3)
        assert np.abs(r[ok]).max() < 1e-10

    def test_continuity_two_mode_joint_refinement(self):
        errs = []
        for n, dt in ((1001, 2e-3 * PERIOD), (2001, 1e-3 * PERIOD)):
            basis = eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, n), 4)
            r, ok = continuity_residual(equal_two_mode(basis, 0, 1), 0.29 * PERIOD, dt)
            errs.append(np.abs(r[ok]).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.8)


class TestVortex2D:
    def test_ep_exact_everywhere(self, vortex_state):
        d = decompose(vortex_state, 0.17)
        m = d.valid
        E = 2.5 * math.pi**2
        np.testing.assert_allclose(d.E_p[m], E, rtol=1e-12)

    def test_hj_convergence_2d(self):
        # measured away from the vortex core, where K_a stays bounded; the
        # near-core residual is dominated by the 1/r^2 blowup instead
        errs = []
        for n in (61, 121):
            d = decompose(vortex_on(n), 0.0)
            r, ok = hj_residual(d)
            X, Y = d.grid.mesh()
            away = ok & ((X - 0.5) ** 2 + (Y - 0.5) ** 2 > 0.1**2)
            errs.append(np.abs(r[away]).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.8)

    def test_continuity_stationary_2d(self):
        errs = []
        for n in (61, 121):
            r, ok = continuity_residual(vortex_on(n), 0.05, 1e-3)
            errs.append(np.abs(r[ok]).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.8)

    def test_q_split_2d(self, vortex_state):
        d = decompose(vortex_state, 0.0)
        m = d.valid
        err = np.abs(d.Q[m] - d.K_s[m] - d.Q_r[m]).max()
        assert err < 0.35 * np.abs(d.Q[m]).max()


class TestClassification:
    def test_real_eigenstate_sets_coincide(self, ho_basis):
        sp = superposition(ho_basis, [2], [1.0])
        d = decompose(sp, 0.0)
        head = d.E_plus - d.U
        # zero flow: the hard set is exactly the classically forbidden set
        assert np.array_equal(d.hard_qka, d.forbidden_global)
        assert d.forbidden_global.any()
        # away from turning points (stencil error in Q) and interior nodes
        # (|psi| kinks, so discrete Q dives there) the soft set matches too
        clear = (d.valid & (np.abs(head) > 0.05)
                 & (d.rho > 1e-3 * d.rho.max()))
        assert np.array_equal(d.soft_qka[clear], d.forbidden_global[clear])

    def test_two_mode_hard_near_node_time(self, well_basis):
        sp = equal_two_mode(well_basis, 0, 1)
        d = decompose(sp, PERIOD / 3.0 - 0.002 * PERIOD)
        assert d.hard_qka.any()
        assert not d.forbidden_global.any()
        assert mask_area(d.grid, d.soft_qka) > 0.0

    def test_forbidden_subsets(self, ho_basis):
        for t in (0.0, 0.013, 0.05):
            sp = superposition(ho_basis, [0, 3], [0.6, 0.8])
            d = decompose(sp, t)
            assert not (d.forbidden_global & ~d.hard_qka).any()
            assert not (d.forbidden_local & ~d.soft_qka).any()

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
        assert not (d.forbidden_global & ~d.hard_qka).any()
        assert not (d.forbidden_local & ~d.soft_qka).any()

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: near a turning point the O(h^2) Hamilton-Jacobi "
        "error of the stencil Q outweighs |Q|, so 2 points of forbidden_local "
        "fall outside soft_qka; exact mode derivatives mend it"))
    def test_forbidden_subsets_recorded_case(self, ho_small):
        # the input Hypothesis once drew for test_forbidden_subsets_property,
        # replayed on every machine
        a, phase, t = 0.1764174303279145, 0.7578125, 0.5032186479225094
        sp = superposition(ho_small, [0, 2], [a, math.sqrt(1.0 - a * a) * np.exp(1j * phase)])
        d = decompose(sp, t)
        assert not (d.forbidden_global & ~d.hard_qka).any()
        assert not (d.forbidden_local & ~d.soft_qka).any()


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
        p = tmp_path / "masks.csv"
        masks_to_csv(d, str(p))
        rows = p.read_text().strip().splitlines()
        assert rows[0].split(",")[1] == "soft_qka"
        flagged = sum(int(r.split(",")[2]) for r in rows[1:])
        assert flagged == int(d.hard_qka.sum())

    def test_tables_match_row_loop_writer(self, two_mode, vortex_state, tmp_path):
        # the csv.writer row loops the column writer replaced, LF-terminated
        def row_loop(path, names, cols, flags):
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(names)
                for i in range(len(cols[0])):
                    w.writerow([f"{c[i]:.17g}" for c in cols] + [int(f[i]) for f in flags])

        for d in (decompose(two_mode, 0.1 * PERIOD), decompose(vortex_state, 0.0)):
            if d.grid.ndim == 1:
                coords = ["x"], [d.grid.x]
            else:
                coords = ["x", "y"], [c.ravel() for c in d.grid.mesh()]
            fields = ["Q", "K_a", "K_s", "Q_r", "K_c", "E_p", "K_cl", "U",
                      "q", "k_a", "k_s", "q_r", "k_c", "e_p", "u", "rho"]
            flags = ["soft_qka", "hard_qka", "soft_qrkc", "hard_qrkc",
                     "forbidden_global", "forbidden_local"]
            row_loop(tmp_path / "d_ref.csv", coords[0] + fields + ["valid"],
                     coords[1] + [getattr(d, n).ravel() for n in fields],
                     [d.valid.ravel()])
            row_loop(tmp_path / "m_ref.csv", coords[0] + flags + ["valid"], coords[1],
                     [getattr(d, n).ravel() for n in flags + ["valid"]])
            decomposition_to_csv(d, str(tmp_path / "d.csv"))
            masks_to_csv(d, str(tmp_path / "m.csv"))
            for name in ("d", "m"):
                want = (tmp_path / f"{name}_ref.csv").read_bytes()
                assert (tmp_path / f"{name}.csv").read_bytes() == want

    def test_mask_area_2d(self, vortex_state):
        d = decompose(vortex_state, 0.0)
        a = mask_area(d.grid, d.valid)
        assert 0.0 < a < 1.0


# The per-frame ledger as it stood before the frame axis, kept verbatim as
# an oracle (renamed oracle_*): polar_fields, energy_decomposition and
# classify_superoscillation on ScalarFields, with the grid stencils whose
# edge rows were BLAS dots.  The one array pass must give the same bits
# on valid, the same masks, and may differ elsewhere only in the edge rows
# of the columns built from stencils on the whole grid.  ScalarField and
# ComplexField are minimal copies of the field classes it was written on.


@dataclass
class ScalarField:
    """Real values on a grid with a validity mask, all true by default."""

    grid: object
    values: np.ndarray
    mask: np.ndarray = None
    kind = float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=self.kind)
        if self.mask is None:
            self.mask = np.ones(self.values.shape, dtype=bool)


class ComplexField(ScalarField):
    kind = complex


_ORACLE_GRAD_EDGE = np.array([-1.5, 2.0, -0.5])
_ORACLE_LAP_EDGE = np.array([35.0 / 12.0, -26.0 / 3.0, 19.0 / 2.0, -14.0 / 3.0, 11.0 / 12.0])


def _oracle_same_kind(f, values, mask):
    cls = ComplexField if np.iscomplexobj(f.values) else ScalarField
    return cls(f.grid, values, mask)


def _oracle_stencil_mask(mask, edge_span):
    out = np.empty_like(mask)
    out[1:-1] = mask[1:-1] & mask[2:] & mask[:-2]
    out[0] = mask[:edge_span].all(axis=0)
    out[-1] = mask[-edge_span:].all(axis=0)
    return out


def _oracle_d1(v, h):
    g = np.empty_like(v)
    g[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    g[0] = _ORACLE_GRAD_EDGE @ v[:3] / h
    g[-1] = -(_ORACLE_GRAD_EDGE @ v[-1:-4:-1]) / h
    return g


def _oracle_d2(v, h):
    L = np.empty_like(v)
    L[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    L[0] = _ORACLE_LAP_EDGE @ v[:5] / h**2
    L[-1] = _ORACLE_LAP_EDGE @ v[-1:-6:-1] / h**2
    return L


def _oracle_partial(f, axis, stencil, edge_span):
    vals = stencil(np.moveaxis(f.values, axis, 0), f.grid.axes[axis].h)
    mask = _oracle_stencil_mask(np.moveaxis(f.mask, axis, 0), edge_span)
    return np.moveaxis(vals, 0, axis), np.moveaxis(mask, 0, axis)


def oracle_partials(f):
    out = []
    for axis in range(len(f.grid.axes)):
        vals, mask = _oracle_partial(f, axis, _oracle_d1, 3)
        vals[~mask] = 0.0
        out.append(_oracle_same_kind(f, vals, mask))
    return tuple(out)


def oracle_laplacian(f):
    terms = [_oracle_partial(f, axis, _oracle_d2, 5) for axis in range(len(f.grid.axes))]
    vals = functools.reduce(operator.add, (v for v, _ in terms))
    mask = functools.reduce(operator.and_, (m for _, m in terms))
    vals[~mask] = 0.0
    return _oracle_same_kind(f, vals, mask)


def _oracle_interior_mask(shape):
    mask = np.zeros(shape, dtype=bool)
    mask[(slice(2, -2),) * len(shape)] = True
    return mask


@dataclass
class OracleMadelungFields:
    psi: ComplexField
    dpsidt: ComplexField
    rho: ScalarField
    R: ScalarField
    grad_psi: tuple
    grad_S: tuple
    dSdt: ScalarField
    node_mask: np.ndarray

    @property
    def grid(self):
        return self.psi.grid


@dataclass
class OracleEnergyDecomposition:
    Q: ScalarField
    K_a: ScalarField
    K_s: ScalarField
    Q_r: ScalarField
    K_c: ScalarField
    E_p: ScalarField
    K_cl: ScalarField
    U: ScalarField
    q: ScalarField
    k_a: ScalarField
    k_s: ScalarField
    q_r: ScalarField
    k_c: ScalarField
    e_p: ScalarField
    u: ScalarField
    rho: ScalarField
    E_plus: float

    @property
    def grid(self):
        return self.Q.grid


def oracle_polar_fields(psi, dpsidt):
    if psi.grid is not dpsidt.grid and psi.grid != dpsidt.grid:
        raise ValueError("psi and dpsidt must share a grid")
    rho_vals = np.abs(psi.values) ** 2
    peak = rho_vals.max()
    if peak == 0.0:
        raise ValueError("wavefunction is identically zero")
    node_mask = (rho_vals >= EPS_NODE * peak) & _oracle_interior_mask(rho_vals.shape)

    grid = psi.grid
    full = np.ones_like(node_mask)
    rho = ScalarField(grid, rho_vals, full.copy())
    R = ScalarField(grid, np.sqrt(rho_vals), full.copy())

    dpsi = oracle_partials(ComplexField(grid, psi.values, full.copy()))

    grad_S = []
    for comp in dpsi:
        num = np.imag(np.conj(psi.values) * comp.values)
        vals = np.zeros_like(rho_vals)
        np.divide(num, rho_vals, out=vals, where=node_mask)
        grad_S.append(ScalarField(grid, vals, node_mask.copy()))

    num_t = np.imag(np.conj(psi.values) * dpsidt.values)
    dSdt_vals = np.zeros_like(rho_vals)
    np.divide(num_t, rho_vals, out=dSdt_vals, where=node_mask)
    dSdt = ScalarField(grid, dSdt_vals, node_mask.copy())

    return OracleMadelungFields(psi, dpsidt, rho, R, dpsi, tuple(grad_S), dSdt, node_mask)


def _oracle_divided(grid, num, den, mask):
    vals = np.zeros_like(num)
    np.divide(num, den, out=vals, where=mask)
    return ScalarField(grid, vals, mask.copy())


def oracle_energy_decomposition(f, U, E_plus):
    grid = f.grid
    mask = f.node_mask
    rho_vals = f.rho.values

    lap_R = oracle_laplacian(f.R)
    q_vals = -0.5 * f.R.values * lap_R.values
    q = ScalarField(grid, q_vals, lap_R.mask.copy())

    lap_rho = oracle_laplacian(f.rho)
    q_r = ScalarField(grid, -0.25 * lap_rho.values, lap_rho.mask.copy())

    ep_vals = -np.imag(np.conj(f.psi.values) * f.dpsidt.values)
    e_p_density = ScalarField(grid, ep_vals, np.ones_like(mask))

    u = ScalarField(grid, rho_vals * U.values, U.mask.copy())

    full = np.ones_like(mask)
    kc_vals = np.zeros_like(rho_vals)
    for comp in f.grad_psi:
        kc_vals = kc_vals + 0.5 * np.abs(comp.values) ** 2

    ka_vals = np.zeros_like(rho_vals)
    for comp in f.grad_S:
        ka_vals = ka_vals + 0.5 * comp.values**2
    ka_density = np.where(mask, rho_vals * ka_vals, 0.0)
    k_a = ScalarField(grid, ka_density, mask.copy())

    ks_density = np.maximum(kc_vals - ka_density, 0.0)
    k_s = ScalarField(grid, ks_density, full.copy())
    k_c = ScalarField(grid, ka_density + ks_density, full.copy())

    Q = _oracle_divided(grid, q_vals, rho_vals, mask & q.mask)
    K_s = _oracle_divided(grid, ks_density, rho_vals, mask)
    Q_r = _oracle_divided(grid, q_r.values, rho_vals, mask & q_r.mask)
    K_a = ScalarField(grid, np.where(mask, ka_vals, 0.0), mask.copy())

    kc_mask = K_a.mask & K_s.mask
    K_c = ScalarField(grid, np.where(kc_mask, K_a.values + K_s.values, 0.0), kc_mask)

    E_p = ScalarField(grid, -f.dSdt.values, f.dSdt.mask.copy())
    kcl_mask = E_p.mask & U.mask
    K_cl = ScalarField(grid, np.where(kcl_mask, E_p.values - U.values, 0.0), kcl_mask)

    return OracleEnergyDecomposition(
        Q=Q, K_a=K_a, K_s=K_s, Q_r=Q_r, K_c=K_c, E_p=E_p, K_cl=K_cl,
        U=ScalarField(grid, U.values.copy(), U.mask.copy()),
        q=q, k_a=k_a, k_s=k_s, q_r=q_r, k_c=k_c,
        e_p=e_p_density, u=u,
        rho=ScalarField(grid, rho_vals.copy(), f.rho.mask.copy()),
        E_plus=float(E_plus),
    )


def oracle_classify_superoscillation(d):
    valid = d.Q.mask & d.K_a.mask & d.K_s.mask & d.E_p.mask
    head = d.E_plus - d.U.values

    soft_qka = valid & (d.Q.values < -EQ_TOL)
    hard_qka = valid & (d.K_a.values - head > EQ_TOL)
    soft_qrkc = valid & (d.q_r.values < -EQ_TOL)
    hard_qrkc = valid & (d.k_c.values - (d.rho.values * d.E_plus - d.u.values) > EQ_TOL)
    forbidden_global = valid & (head < -EQ_TOL)
    forbidden_local = valid & (d.K_cl.values < -EQ_TOL)

    return dict(soft_qka=soft_qka, hard_qka=hard_qka, soft_qrkc=soft_qrkc,
                hard_qrkc=hard_qrkc, forbidden_global=forbidden_global,
                forbidden_local=forbidden_local, valid=valid)


def oracle_decompose(s, t):
    pot = s.basis.potential
    if pot is None:
        U = ScalarField(s.grid, np.zeros(s.grid.shape))
    else:
        U = ScalarField(s.grid, sample_potential(pot, s.grid))
    f = oracle_polar_fields(ComplexField(s.grid, evaluate(s, t)),
                            ComplexField(s.grid, time_derivative(s, t)))
    return oracle_energy_decomposition(f, U, band_limit(s))


# the density columns built from stencils on the whole grid: their edge
# rows, outside valid, are the one place the two ledgers may round apart
STENCIL_COLS = ("q", "q_r", "k_s", "k_c")


class TestLedgerOracle:
    @pytest.mark.parametrize("name", sc.SCENARIOS)
    def test_stock_frames_match_the_per_frame_ledger(self, name):
        # vortex_2d builds one frame and the eigenstate scenarios two
        fixed = ("vortex_2d", "ho_eigenstates", "quartic_eigenstates")
        over = {} if name in fixed else {"frames": 4}
        if name == "mzi_1d":
            over["barrier_height"] = 2437.5  # the tuned height, without tuning
        b = sc.build_scenario(sc.default_config(name, **over))
        states = [b.states[si] for si in b.frame_states]
        table = frame_ledger(states, b.frame_times)
        shape = b.basis.grid.shape
        assert set(table) == set(LEDGER_COLS + MASK_COLS + ("valid", "E_plus"))
        assert np.array_equal(table["E_plus"], [band_limit(s) for s in states])
        edge = np.zeros(shape, dtype=bool)
        for axis in range(len(shape)):
            edge[(slice(None),) * axis + ([0, -1],)] = True

        for i, (s, t) in enumerate(zip(states, b.frame_times)):
            d = oracle_decompose(s, float(t))
            m = oracle_classify_superoscillation(d)
            valid = m["valid"]
            assert np.array_equal(table["valid"][i], valid)
            for col in MASK_COLS:
                assert np.array_equal(table[col][i], m[col]), (i, col)
            for col in LEDGER_COLS:
                got, want = table[col][i], getattr(d, col).values
                assert got.dtype == want.dtype and got.shape == want.shape
                moved = (got.view(np.uint64) != want.view(np.uint64))
                assert not (moved & valid).any(), (i, col)
                if col not in STENCIL_COLS:
                    assert not moved.any(), (i, col)
                assert not (moved & ~edge).any(), (i, col)
