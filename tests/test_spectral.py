"""Eigenproblem tests: analytic oracles, convergence orders, caching."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import madelung
from madelung import spectral
from madelung.grids import Grid1D, Grid2D, quadrature
from madelung.spectral import (
    Harmonic,
    InfiniteWell,
    ModeTables,
    QuarticDoubleWell,
    SymTridiag,
    Tabulated,
    WellWithBarrier,
    build_hamiltonian,
    eigenbasis,
    load_basis,
    product_basis_2d,
    sample_potential,
    save_basis,
    snapped_barrier_width,
    solve_eigen,
)
from madelung.states import cap_modes, equal_two_mode, evaluate_at, project_field

E1_WELL = math.pi**2 / 8.0  # ground state of the half-width-1 hard well

# Frozen double-well eigenvalues from the n=2001/n=4001 FD solves on
# [-1.25, 1.25] (Richardson-consistent to ~1e-5); used as regression pins.
QUARTIC_E0 = 8.7567
QUARTIC_E1 = 10.7090


class TestPotentials:
    def test_well_zero_inside(self):
        g = Grid1D(-1.0, 1.0, 201)
        u = sample_potential(InfiniteWell(1.0), g)
        assert np.all(u == 0.0)

    def test_barrier_heights(self):
        g = Grid1D(-1.0, 1.0, 2001)
        u = sample_potential(WellWithBarrier(1.0, 15.0, 0.2), g)
        inside = np.abs(g.x) < 0.1 - 1e-12
        outside = np.abs(g.x) > 0.1 + 1e-12
        assert np.all(u[inside] == 15.0)
        assert np.all(u[outside] == 0.0)

    def test_barrier_snap_width(self):
        g = Grid1D(-1.0, 1.0, 2001)
        assert snapped_barrier_width(WellWithBarrier(1.0, 15.0, 0.2), g) == pytest.approx(0.2)
        # a width that does not land on grid points gets snapped
        w = snapped_barrier_width(WellWithBarrier(1.0, 15.0, 0.0013), g)
        assert w == pytest.approx(0.002, abs=1e-12)

    @pytest.mark.parametrize("width", [-0.02, 0.0])
    def test_barrier_width_not_positive_refused(self, width):
        # on the stock mzi_1d grid, -0.02 sampled no barrier at all while
        # snapped_barrier_width reported -0.02
        with pytest.raises(ValueError, match=f"barrier width {width!r} must lie in"):
            WellWithBarrier(2.0, 2437.5, width)

    @pytest.mark.parametrize("width", [4.0, 5.0])
    def test_barrier_as_wide_as_the_well_refused(self, width):
        # on the stock mzi_1d grid, 5.0 wrapped its first index and set only
        # the points 1751-2000 at the right edge
        with pytest.raises(ValueError, match=f"barrier width {width!r} must lie in"):
            WellWithBarrier(2.0, 2437.5, width)
        # just narrower than the well it covers all but a few points at each wall
        u = sample_potential(WellWithBarrier(2.0, 2437.5, 3.99), Grid1D(-2.0, 2.0, 2001))
        assert (u[3:-3] == 2437.5).all()

    @pytest.mark.parametrize("width", [0.0009, 0.0013, 0.002])
    def test_barrier_on_one_grid_point_refused(self, width):
        # on the stock mzi_1d grid (h = 0.002) these widths set only x = 0,
        # and snapped_barrier_width read 0.0
        g = Grid1D(-2.0, 2.0, 2001)
        pot = WellWithBarrier(2.0, 2437.5, width)
        for fn in (sample_potential, snapped_barrier_width):
            with pytest.raises(ValueError, match=f"barrier width {width!r} covers one "
                                                 f"grid point at h = {g.h!r}"):
                fn(pot, g)
        # the next wider barrier covers three points
        assert (sample_potential(WellWithBarrier(2.0, 2437.5, 0.0021), g) > 0).sum() == 3

    def test_hard_well_off_its_grid_refused(self):
        # the finite-difference path took its walls from the grid ends: the
        # half-width-2 well on [-1, 1] solved to the unit well's energies
        g = Grid1D(-1.0, 1.0, 201)
        with pytest.raises(ValueError, match=re.escape("grid must span [-a, a] exactly")):
            solve_eigen(build_hamiltonian(InfiniteWell(2.0), g), 2, g)

    def test_barrier_well_off_its_grid_refused(self, tmp_path):
        # it returned the energies of WellWithBarrier(1.0, ...) while its
        # cache key recorded 2.0; nothing is written to the cache
        g = Grid1D(-1.0, 1.0, 201)
        with pytest.raises(ValueError, match="grid must span"):
            eigenbasis(WellWithBarrier(2.0, 15.0, 0.2), g, 3, cache_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []

    def test_barrier_wider_than_the_grid_refused(self):
        # legal on the half-width-2 well, but on [-1, 1] it wrapped its first
        # index: only the 50 points from x = 0.51 were set, and the snapped
        # width read 3.0
        g = Grid1D(-1.0, 1.0, 201)
        pot = WellWithBarrier(2.0, 10.0, 3.0)
        for fn in (sample_potential, snapped_barrier_width):
            with pytest.raises(ValueError, match="grid must span"):
                fn(pot, g)

    def test_quartic_shape(self):
        g = Grid1D(-1.25, 1.25, 501)
        u = sample_potential(QuarticDoubleWell(), g)
        x = g.x
        assert u[np.argmin(np.abs(x))] == pytest.approx(15.0)
        assert u[np.argmin(np.abs(x - 0.5))] == pytest.approx(0.0, abs=1e-12)
        assert u[np.argmin(np.abs(x + 0.5))] == pytest.approx(0.0, abs=1e-12)

    def test_tabulated_gauge_shift(self):
        # constant potential shifts all eigenvalues by the constant
        g = Grid1D(-1.0, 1.0, 801)
        base = solve_eigen(build_hamiltonian(InfiniteWell(1.0), g), 3, g)
        shifted_pot = Tabulated(g, np.full(g.n, 2.5))
        shifted = solve_eigen(build_hamiltonian(shifted_pot, g), 3, g)
        assert np.allclose(shifted.energies - base.energies, 2.5, atol=1e-9)

    def test_tabulated_wrong_shape_refused(self):
        g = Grid1D(-1.0, 1.0, 11)
        for values in (np.zeros(10), np.zeros((11, 1)), 2.5):
            with pytest.raises(ValueError, match="does not match grid"):
                Tabulated(g, values)

    def test_tabulated_compares_and_hashes_by_identity(self):
        g = Grid1D(-1.0, 1.0, 11)
        a, b = Tabulated(g, np.zeros(g.n)), Tabulated(g, np.zeros(g.n))
        assert a == a and a != b
        assert len({a, b, a}) == 2
        assert hash(a) == hash(a)

    def test_tabulated_nonfinite_refused(self):
        g = Grid1D(-1.0, 1.0, 11)
        for bad in (np.nan, np.inf, -np.inf):
            values = np.zeros(g.n)
            values[4] = bad
            with pytest.raises(ValueError, match="finite"):
                sample_potential(Tabulated(g, values), g)


class TestHamiltonian:
    def test_stencil_entries(self):
        g = Grid1D(0.0, 4.0, 5)  # h = 1
        H = build_hamiltonian(InfiniteWell(2.0), Grid1D(-2.0, 2.0, 5))
        assert np.allclose(H.diagonal, 1.0)
        assert np.allclose(H.offdiag, -0.5)
        assert len(H.diagonal) == 3

    def test_barrier_diagonal_bump(self):
        g = Grid1D(-1.0, 1.0, 2001)
        H0 = build_hamiltonian(InfiniteWell(1.0), g)
        Hb = build_hamiltonian(WellWithBarrier(1.0, 15.0, 0.2), g)
        bump = Hb.diagonal - H0.diagonal
        inner = np.abs(g.x[1:-1]) < 0.1 - 1e-12
        assert np.all(bump[inner] == 15.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SymTridiag(np.ones(5), np.ones(5))


class TestAnalyticBases:
    def test_well_energies(self):
        g = Grid1D(-1.0, 1.0, 2001)
        basis = eigenbasis(InfiniteWell(1.0), g, 2)
        assert basis.energies[0] == pytest.approx(E1_WELL, rel=1e-14)
        assert basis.energies[1] == pytest.approx(4.0 * E1_WELL, rel=1e-14)
        assert quadrature(g, basis.states[0] ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_well_sign_convention(self):
        for psi in eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, 501), 4).states:
            lead = psi[np.abs(psi) > 1e-8 * np.abs(psi).max()][0]
            assert lead > 0

    def test_well_wrong_grid(self):
        with pytest.raises(ValueError, match="span"):
            eigenbasis(InfiniteWell(1.0), Grid1D(-0.9, 1.0, 101), 1)

    def test_harmonic_energies_and_parity(self):
        basis = eigenbasis(Harmonic(10.0), Grid1D(-3.0, 3.0, 2001), 2)
        psi0, psi1 = basis.states
        assert basis.energies[0] == pytest.approx(5.0)
        assert basis.energies[1] == pytest.approx(15.0)
        assert np.allclose(psi0, psi0[::-1], atol=1e-13)
        assert np.allclose(psi1, -psi1[::-1], atol=1e-13)

    def test_harmonic_narrow_grid_rejected(self):
        with pytest.raises(ValueError, match="narrow"):
            eigenbasis(Harmonic(10.0), Grid1D(-2.0, 2.0, 801), 1)

    def test_harmonic_orthonormal_high_mode(self):
        g = Grid1D(-4.0, 4.0, 4001)
        states = eigenbasis(Harmonic(10.0), g, 6).states
        assert quadrature(g, states[5] ** 2) == pytest.approx(1.0, abs=1e-9)
        assert abs(quadrature(g, states[5] * states[3])) < 1e-9


class TestModeTable:
    """The grid basis of every analytic potential is its mode table sampled
    at the grid points, bit for bit."""

    @pytest.mark.parametrize("potential, grid, k", [
        (InfiniteWell(1.5), Grid1D(-1.5, 1.5, 501), 6),
        (Harmonic(10.0), Grid1D(-3.0, 3.0, 601), 8),
        # the 140-mode mzi_1d launch basis, and Hermite bases of 13 modes and of one
        (InfiniteWell(2.0), Grid1D(-2.0, 2.0, 2001), 140),
        (Harmonic(20.0), Grid1D(-4.0, 4.0, 1001), 13),
        (Harmonic(10.0), Grid1D(-3.0, 3.0, 601), 1),
    ], ids=["well", "hermite", "well140", "hermite13", "hermite1"])
    def test_1d_basis_is_table_on_grid(self, potential, grid, k):
        # the basis samples the values alone, and they are the tables' bits
        basis = eigenbasis(potential, grid, k)
        values, dx = ModeTables(basis, np.arange(k))(grid.x)
        assert values.shape == dx.shape == (k, grid.n)
        assert np.array_equal(values, basis.states)
        assert basis.states.flags.c_contiguous

    def test_box_basis_is_table_on_grid(self):
        grid2 = Grid2D(Grid1D(0.0, 1.3, 41), Grid1D(0.0, 2.0, 61))
        pairs = [(1, 1), (1, 2), (2, 1), (3, 2)]
        basis = product_basis_2d(pairs, grid2)
        x, y = np.meshgrid(grid2.grid_x.x, grid2.grid_y.x, indexing="ij")
        values, dx, dy = ModeTables(basis, np.arange(len(pairs)))(x, y)
        assert values.shape == dx.shape == dy.shape == (len(pairs),) + grid2.shape
        assert np.array_equal(values, basis.states)


class TestSolveEigen:
    def test_well_against_analytic(self):
        # acceptance-grade: n=2001, k=4, 0.1 percent
        g = Grid1D(-1.0, 1.0, 2001)
        basis = solve_eigen(build_hamiltonian(InfiniteWell(1.0), g), 4, g)
        for n in range(1, 5):
            expect = n**2 * E1_WELL
            assert basis.energies[n - 1] == pytest.approx(expect, rel=1e-3)

    def test_harmonic_against_analytic(self):
        g = Grid1D(-2.0, 2.0, 2001)
        basis = solve_eigen(build_hamiltonian(Harmonic(10.0), g), 3, g)
        for n in range(3):
            assert basis.energies[n] == pytest.approx((n + 0.5) * 10.0, rel=1e-3)

    def test_eigenvalue_refinement_order(self):
        # halving h scales the E_1 error by ~1/4
        errs = []
        for n in (1001, 2001):
            g = Grid1D(-1.0, 1.0, n)
            basis = solve_eigen(build_hamiltonian(InfiniteWell(1.0), g), 1, g)
            errs.append(abs(basis.energies[0] - E1_WELL))
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_residual_bound(self):
        g = Grid1D(-1.0, 1.0, 2001)
        H = build_hamiltonian(WellWithBarrier(1.0, 15.0, 0.2), g)
        basis = solve_eigen(H, 2, g)
        for j in range(2):
            psi = basis.states[j][1:-1]
            Hpsi = H.diagonal * psi
            Hpsi[:-1] += H.offdiag * psi[1:]
            Hpsi[1:] += H.offdiag * psi[:-1]
            r = np.abs(Hpsi - basis.energies[j] * psi).max()
            assert r <= 1e-8 * np.abs(psi).max()

    def test_variational_consistency(self):
        g = Grid1D(-1.0, 1.0, 1501)
        H = build_hamiltonian(WellWithBarrier(1.0, 15.0, 0.2), g)
        basis = solve_eigen(H, 2, g)
        for j in range(2):
            v = basis.states[j][1:-1]
            Hv = H.diagonal * v
            Hv[:-1] += H.offdiag * v[1:]
            Hv[1:] += H.offdiag * v[:-1]
            rayleigh = (v @ Hv) / (v @ v)
            assert rayleigh == pytest.approx(basis.energies[j], rel=1e-8)

    def test_quartic_doublet(self):
        g = Grid1D(-1.25, 1.25, 2001)
        basis = solve_eigen(build_hamiltonian(QuarticDoubleWell(), g), 2, g)
        e0, e1 = basis.energies
        assert e0 == pytest.approx(QUARTIC_E0, abs=2e-3)
        assert e1 == pytest.approx(QUARTIC_E1, abs=2e-3)
        assert e0 < e1 < 15.0
        # near-degenerate doublet: splitting well under both the ground
        # energy and the gap to the next level (~12.3)
        assert e1 - e0 < 0.25 * e0
        # definite parity: ground even, first excited odd
        psi0, psi1 = basis.states[0], basis.states[1]
        assert np.abs(psi0 - psi0[::-1]).max() < 1e-6 * np.abs(psi0).max()
        assert np.abs(psi1 + psi1[::-1]).max() < 1e-6 * np.abs(psi1).max()

    def test_quartic_domain_truncation(self):
        # widening the solve domain moves E_0, E_1 by < 1e-6
        e_narrow = solve_eigen(
            build_hamiltonian(QuarticDoubleWell(), Grid1D(-1.25, 1.25, 2001)),
            2,
            Grid1D(-1.25, 1.25, 2001),
        ).energies
        e_wide = solve_eigen(
            build_hamiltonian(QuarticDoubleWell(), Grid1D(-1.5, 1.5, 2401)),
            2,
            Grid1D(-1.5, 1.5, 2401),
        ).energies
        # compare on matched h (2401 points over 3.0 keeps h = 1.25e-3)
        assert abs(e_wide[0] - e_narrow[0]) < 1e-6
        assert abs(e_wide[1] - e_narrow[1]) < 1e-6

    def test_k_too_large(self):
        g = Grid1D(-1.0, 1.0, 11)
        H = build_hamiltonian(InfiniteWell(1.0), g)
        with pytest.raises(ValueError):
            solve_eigen(H, 9, g)


# The polish as it was written before it ran in preallocated buffers, kept
# verbatim but for the sweep count: the buffered one must reproduce it bit
# for bit.
def _polish_pairs_oracle(d: np.ndarray, e: np.ndarray, vals: np.ndarray, vecs: np.ndarray,
                         sweeps: int = 2):
    """One-step-per-sweep inverse iteration in extended precision.

    Float64 bisection/inverse-iteration residuals sit at the backward
    stability floor eps*|H|, which for h ~ 1e-4 exceeds the 1e-8 target;
    two longdouble sweeps push them to ~1e-11.
    """
    dl = d.astype(np.longdouble)
    el = e.astype(np.longdouble)
    n, k = vecs.shape
    lam = vals.astype(np.longdouble).copy()
    V = vecs.astype(np.longdouble).copy()
    tiny = np.longdouble(1e-300)
    for _ in range(sweeps):
        # vectorized Thomas solve of (T - lam_j) w_j = v_j for all j
        c = np.empty((n - 1, k), np.longdouble)
        g = np.empty((n, k), np.longdouble)
        m = dl[0] - lam
        m = np.where(np.abs(m) < tiny, tiny, m)
        c[0] = el[0] / m
        g[0] = V[0] / m
        for i in range(1, n):
            m = dl[i] - lam - el[i - 1] * c[i - 1]
            m = np.where(np.abs(m) < tiny, tiny, m)
            if i < n - 1:
                c[i] = el[i] / m
            g[i] = (V[i] - el[i - 1] * g[i - 1]) / m
        W = np.empty_like(g)
        W[-1] = g[-1]
        for i in range(n - 2, -1, -1):
            W[i] = g[i] - c[i] * W[i + 1]
        W /= np.sqrt((W * W).sum(axis=0))
        HW = dl[:, None] * W
        HW[:-1] += el[:, None] * W[1:]
        HW[1:] += el[:, None] * W[:-1]
        lam = (W * HW).sum(axis=0)
        V = W
    # independent shifts cross-talk inside near-degenerate clusters
    # (tall-barrier doublets), so re-orthogonalize within each cluster
    scale = np.abs(dl).max() + 2.0 * np.abs(el).max()
    changed = False
    j = 0
    while j < k:
        end = j + 1
        while end < k and lam[end] - lam[end - 1] < 1e-8 * scale:
            end += 1
        for a in range(j + 1, end):
            for b in range(j, a):
                V[:, a] = V[:, a] - (V[:, b] * V[:, a]).sum() * V[:, b]
            V[:, a] /= np.sqrt((V[:, a] ** 2).sum())
            changed = True
        j = end
    if changed:
        HW = dl[:, None] * V
        HW[:-1] += el[:, None] * V[1:]
        HW[1:] += el[:, None] * V[:-1]
        lam = (V * HW).sum(axis=0)
    return lam.astype(float), V.astype(float), HW.astype(float)


# (potential, grid, k): the stock interferometer barrier, a tall barrier
# whose doublets take the re-orthogonalization path, and the double well
_POLISH_CASES = {
    "barrier_2437": (WellWithBarrier(2.0, 2437.5, 0.02), Grid1D(-2.0, 2.0, 2001), 140),
    "barrier_16000": (WellWithBarrier(2.0, 16000.0, 0.02), Grid1D(-2.0, 2.0, 2001), 140),
    "quartic": (QuarticDoubleWell(), Grid1D(-1.25, 1.25, 2001), 6),
}


@pytest.fixture(scope="module")
def stein_pairs():
    """Bisection + inverse-iteration pairs per case, before the polish;
    eigh_tridiagonal returns the vectors Fortran-ordered."""
    from scipy.linalg import eigh_tridiagonal

    out = {}
    for name, (pot, g, k) in _POLISH_CASES.items():
        H = build_hamiltonian(pot, g)
        vals, vecs = eigh_tridiagonal(H.diagonal, H.offdiag, select="i",
                                      select_range=(0, k - 1))
        out[name] = (H, vals, vecs)
    return out


class TestPolish:
    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("name", sorted(_POLISH_CASES))
    def test_bits_match_the_unbuffered_polish(self, stein_pairs, name, order):
        H, vals, vecs = stein_pairs[name]
        vecs = np.asarray(vecs, order=order)
        got = spectral._polish_pairs(H.diagonal, H.offdiag, vals, vecs)
        want = _polish_pairs_oracle(H.diagonal, H.offdiag, vals, vecs)
        for g_arr, w_arr in zip(got, want):
            assert g_arr.dtype == w_arr.dtype and np.array_equal(g_arr, w_arr)

    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("case", ["chain_pivot_0", "chain_pivot_1", "barrier_2437"])
    def test_zero_pivot_takes_the_clamped_rerun(self, stein_pairs, monkeypatch, case, order):
        # one shift makes a pivot exactly 0, which only the clamped rerun
        # can pass: on the uniform chain d = 2, e = -1 the shift 2 zeroes
        # the first pivot and the shift 1 the second (1 - 1/1); on the
        # stock barrier the shift d_0 zeroes the first
        if case.startswith("chain"):
            from scipy.linalg import eigh_tridiagonal

            d, e = np.full(401, 2.0), np.full(400, -1.0)
            vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(195, 205))
            j, shift = 5, {"chain_pivot_0": 2.0, "chain_pivot_1": 1.0}[case]
        else:
            H, vals, vecs = stein_pairs[case]
            d, e, j = H.diagonal, H.offdiag, 0
            shift = d[0]
        vals = vals.copy()
        vals[j] = shift
        vecs = np.asarray(vecs, order=order)
        real, runs = spectral._inverse_sweeps, []

        def recorded(*args, clamp):
            lam = real(*args, clamp=clamp)
            runs.append((clamp, lam is None))
            return lam

        monkeypatch.setattr(spectral, "_inverse_sweeps", recorded)
        got = spectral._polish_pairs(d, e, vals, vecs)
        want = _polish_pairs_oracle(d, e, vals, vecs)
        assert runs == [(False, True), (True, False)]
        for g_arr, w_arr in zip(got, want):
            assert np.isfinite(g_arr).all()
            assert g_arr.dtype == w_arr.dtype and np.array_equal(g_arr, w_arr)

    def test_stock_bases_skip_the_clamped_rerun(self, stein_pairs, monkeypatch):
        real, runs = spectral._inverse_sweeps, []

        def recorded(*args, clamp):
            runs.append(clamp)
            return real(*args, clamp=clamp)

        monkeypatch.setattr(spectral, "_inverse_sweeps", recorded)
        for H, vals, vecs in stein_pairs.values():
            spectral._polish_pairs(H.diagonal, H.offdiag, vals, vecs)
        assert runs == [False] * len(stein_pairs)

    def test_tall_barrier_takes_the_cluster_path(self, stein_pairs):
        H, vals, vecs = stein_pairs["barrier_16000"]
        lam = spectral._polish_pairs(H.diagonal, H.offdiag, vals, vecs)[0]
        scale = np.abs(H.diagonal).max() + 2.0 * np.abs(H.offdiag).max()
        assert (np.diff(lam) < 1e-8 * scale).any()

    @pytest.mark.parametrize("name", ["barrier_2437", "barrier_16000"])
    def test_solve_peak_within_four_longdouble_arrays(self, stein_pairs, name):
        import tracemalloc

        H = stein_pairs[name][0]
        _, g, k = _POLISH_CASES[name]
        bound = 4 * len(H.diagonal) * k * 16
        tracemalloc.start()
        try:
            solve_eigen(H, k, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"{peak / 1e6:.1f} MB over {bound / 1e6:.1f} MB"

    def test_residual_failure_names_the_first_pair(self, monkeypatch):
        g = Grid1D(-1.0, 1.0, 201)
        H = build_hamiltonian(InfiniteWell(1.0), g)
        real = spectral._polish_pairs

        def spoiled(d, e, vals, vecs, sweeps):
            lam, V, HV = real(d, e, vals, vecs, sweeps)
            lam[[1, 3]] += 1.0
            vals[[1, 3]] += 1.0  # LAPACK's pairs miss the bound too
            return lam, V, HV

        monkeypatch.setattr(spectral, "_polish_pairs", spoiled)
        with pytest.raises(RuntimeError, match=r"^eigenpair 1 residual .* exceeds tolerance$"):
            solve_eigen(H, 4, g)

    def test_spoiled_polish_keeps_the_lapack_pairs(self, monkeypatch):
        # a polished pair that misses the bound gives way to LAPACK's pair
        # when that one meets it; the basis names the pairs it kept so
        g = Grid1D(-1.0, 1.0, 201)
        H = build_hamiltonian(InfiniteWell(1.0), g)
        clean = solve_eigen(H, 4, g)
        real, lapack = spectral._polish_pairs, {}

        def spoiled(d, e, vals, vecs, sweeps):
            lam, V, HV = real(d, e, vals, vecs, sweeps)
            lam[[1, 3]] += 1.0
            lapack.update(vals=vals.copy(), vecs=vecs.copy())
            return lam, V, HV

        monkeypatch.setattr(spectral, "_polish_pairs", spoiled)
        basis = solve_eigen(H, 4, g)
        assert basis.meta["unpolished"] == [1, 3]
        assert "unpolished" not in clean.meta
        assert np.array_equal(basis.energies[[1, 3]], lapack["vals"][[1, 3]])
        assert np.array_equal(basis.energies[[0, 2]], clean.energies[[0, 2]])
        assert np.array_equal(basis.states[[0, 2]], clean.states[[0, 2]])
        v = np.abs(basis.states[[1, 3], 1:-1].T)
        w = np.abs(lapack["vecs"][:, [1, 3]])
        assert np.allclose(v / v.max(axis=0), w / w.max(axis=0), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("u0, pair", [(1000.0, 79), (13750.0, 135)])
    def test_polish_on_a_tiny_pivot_keeps_the_lapack_pair(self, u0, pair):
        # the shifted matrix has a pivot near 1e-8 against ~3e4, which the
        # unpivoted longdouble sweep turns into garbage; LAPACK's own pair
        # meets the bound and is kept
        g = Grid1D(-2.0, 2.0, 1001)
        basis = eigenbasis(WellWithBarrier(2.0, u0, 0.02), g, 140)
        assert basis.meta["unpolished"] == [pair]
        assert spectral.max_residual(basis) <= 1e-8
        basis.validate()

    def test_stock_bases_are_all_polished(self, stein_pairs):
        for name, (H, _, _) in stein_pairs.items():
            _, g, k = _POLISH_CASES[name]
            assert "unpolished" not in solve_eigen(H, k, g).meta

    @pytest.mark.parametrize("first, sweeps", [(50, 1), (0, 2)])
    def test_solve_polishes_a_window_once_and_a_full_basis_twice(self, monkeypatch,
                                                                 first, sweeps):
        # the stock probe window (indices 50..112) and the full stock basis
        H = build_hamiltonian(MZI_POT, MZI_GRID)
        real, seen = spectral._polish_pairs, []

        def checked(d, e, vals, vecs, n):
            got = real(d, e, vals, vecs, n)
            want = _polish_pairs_oracle(d, e, vals, vecs, sweeps)
            seen.append((n, all(np.array_equal(g_arr, w_arr) and g_arr.dtype == w_arr.dtype
                                for g_arr, w_arr in zip(got, want))))
            return got

        monkeypatch.setattr(spectral, "_polish_pairs", checked)
        solve_eigen(H, 113 if first else 140, MZI_GRID, MZI_POT, first)
        assert seen == [(sweeps, True)]

    def test_window_on_a_tiny_pivot_needs_no_lapack_pair(self):
        # two sweeps blow pair 79 up on this window and keep LAPACK's pair
        # (max_residual 1.33e-10); one sweep keeps the polished pair
        basis = eigenbasis(WellWithBarrier(2.0, 1000.0, 0.02), Grid1D(-2.0, 2.0, 1001), 113,
                           first=50)
        assert "unpolished" not in basis.meta
        assert spectral.max_residual(basis) < 5e-11


class TestBasisFactory:
    def test_analytic_dispatch(self):
        g = Grid1D(-1.0, 1.0, 801)
        basis = eigenbasis(InfiniteWell(1.0), g, 3)
        assert basis.meta["method"] == "analytic_well"
        assert basis.energies[2] == pytest.approx(9.0 * E1_WELL, rel=1e-14)

    def test_numeric_dispatch(self):
        g = Grid1D(-1.0, 1.0, 801)
        basis = eigenbasis(WellWithBarrier(1.0, 15.0, 0.2), g, 2)
        assert basis.meta["method"] == "fd_tridiag"
        assert "snapped_barrier_width" in basis.meta

    def test_orthonormality_validation(self):
        g = Grid1D(-2.0, 2.0, 1001)
        basis = eigenbasis(WellWithBarrier(2.0, 2700.0, 0.02), g, 6)
        basis.validate()  # raises on violation

    def test_cache_round_trip(self, tmp_path):
        g = Grid1D(-1.0, 1.0, 601)
        pot = WellWithBarrier(1.0, 15.0, 0.2)
        fresh = eigenbasis(pot, g, 2, cache_dir=str(tmp_path))
        cached = eigenbasis(pot, g, 2, cache_dir=str(tmp_path))
        assert np.array_equal(fresh.energies, cached.energies)
        for a, b in zip(fresh.states, cached.states):
            assert np.array_equal(a, b)

    def test_cache_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MADELUNG_CACHE_DIR", str(tmp_path))
        g = Grid1D(-1.0, 1.0, 301)
        eigenbasis(QuarticDoubleWell(), Grid1D(-1.25, 1.25, 301), 1)
        assert any(tmp_path.iterdir())

    def test_loaded_hermite_basis_evaluates_off_grid(self, tmp_path):
        # omega travels in the basis meta, so no potential is needed
        basis = eigenbasis(Harmonic(10.0), Grid1D(-3.0, 3.0, 601), 3)
        save_basis(basis, str(tmp_path / "ho"))
        back = load_basis(str(tmp_path / "ho"))
        assert back.potential is None
        here = [complex(v) for v in evaluate_at(equal_two_mode(basis), 0.123, 0.4)]
        there = [complex(v) for v in evaluate_at(equal_two_mode(back), 0.123, 0.4)]
        assert there == here

    def test_save_load_direct(self, tmp_path):
        g = Grid1D(-1.0, 1.0, 301)
        basis = eigenbasis(InfiniteWell(1.0), g, 2)
        save_basis(basis, str(tmp_path / "b"))
        back = load_basis(str(tmp_path / "b"))
        assert np.array_equal(back.energies, basis.energies)
        assert np.array_equal(back.states, basis.states)


CACHE_POT = WellWithBarrier(1.0, 15.0, 0.2)
CACHE_GRID = Grid1D(-1.0, 1.0, 601)
CACHE_K = 3

# two processes solve one key, meet at a file barrier and only then
# publish, so both take the miss path and one of them loses the rename
_RACER = textwrap.dedent(
    """
    import os, sys, time
    import numpy as np
    from madelung import spectral
    from madelung.grids import Grid1D

    cache_dir, barrier, me, out = sys.argv[1:5]
    publish = spectral._publish

    def meet_then_publish(basis, entry):
        open(os.path.join(barrier, me), "w").close()
        deadline = time.monotonic() + 60.0
        while len(os.listdir(barrier)) < 2:
            if time.monotonic() > deadline:
                raise RuntimeError("the other racer never arrived")
            time.sleep(0.005)
        publish(basis, entry)

    spectral._publish = meet_then_publish
    pot = spectral.WellWithBarrier(1.0, 15.0, 0.2)
    basis = spectral.eigenbasis(pot, Grid1D(-1.0, 1.0, 601), 3, cache_dir=cache_dir)
    np.save(out, basis.states)
    """
)


def _entry(cache_dir) -> str:
    return os.path.join(str(cache_dir), spectral._cache_key(CACHE_POT, CACHE_GRID, CACHE_K))


def _unversioned_key() -> str:
    """The key the CSV cache gave the same basis."""
    tag = (f"{spectral._canon(CACHE_POT)}|{CACHE_GRID.x_min!r},"
           f"{CACHE_GRID.x_max!r},{CACHE_GRID.n}|k={CACHE_K}")
    return hashlib.sha256(tag.encode()).hexdigest()[:16]


def _two_sweep_key(first) -> str:
    """The key a window entry had while windows were polished twice."""
    tag = (f"{spectral._CACHE_VERSION}|{spectral._canon(CACHE_POT)}|{CACHE_GRID.x_min!r},"
           f"{CACHE_GRID.x_max!r},{CACHE_GRID.n}|k={CACHE_K}|first={first}")
    return hashlib.sha256(tag.encode()).hexdigest()[:16]


class TestCache:
    def test_full_key_unchanged_and_window_key_differs(self):
        # a full entry keeps the name it had before index windows
        full = spectral._cache_key(CACHE_POT, CACHE_GRID, CACHE_K)
        assert full == spectral._cache_key(CACHE_POT, CACHE_GRID, CACHE_K, 0)
        assert full == "04c0f4aab8dba93e"
        windows = {spectral._cache_key(CACHE_POT, CACHE_GRID, CACHE_K, f) for f in (1, 2)}
        assert len(windows) == 2 and full not in windows

    def test_window_entry_round_trip(self, tmp_path):
        fresh = eigenbasis(CACHE_POT, CACHE_GRID, CACHE_K, cache_dir=str(tmp_path), first=1)
        cached = eigenbasis(CACHE_POT, CACHE_GRID, CACHE_K, cache_dir=str(tmp_path), first=1)
        assert len(os.listdir(tmp_path)) == 1
        assert cached.first == 1 and cached.k == CACHE_K - 1
        assert np.array_equal(fresh.states, cached.states)

    @staticmethod
    def _move(cache_dir, key) -> str:
        """Rename the one entry in cache_dir to key; returns its new path."""
        (name,) = os.listdir(cache_dir)
        entry = os.path.join(str(cache_dir), key)
        os.rename(os.path.join(str(cache_dir), name), entry)
        return entry

    @pytest.mark.parametrize("grid, k", [(CACHE_GRID, CACHE_K - 1),
                                         (Grid1D(-1.0, 1.0, 401), CACHE_K)])
    def test_entry_of_another_basis_refused(self, tmp_path, grid, k):
        # a hit is the basis asked for, or an error naming the entry: a
        # smaller basis copied under this key is not returned
        eigenbasis(CACHE_POT, grid, k, cache_dir=str(tmp_path))
        entry = self._move(tmp_path, spectral._cache_key(CACHE_POT, CACHE_GRID, CACHE_K))
        with pytest.raises(ValueError, match=re.escape(entry)):
            eigenbasis(CACHE_POT, CACHE_GRID, CACHE_K, cache_dir=str(tmp_path))

    @pytest.mark.parametrize("stored, asked", [(1, 0), (0, 1), (1, 2)])
    def test_window_entry_never_read_as_another(self, tmp_path, stored, asked):
        eigenbasis(CACHE_POT, CACHE_GRID, CACHE_K, cache_dir=str(tmp_path), first=stored)
        entry = self._move(tmp_path, spectral._cache_key(CACHE_POT, CACHE_GRID, CACHE_K, asked))
        with pytest.raises(ValueError, match=re.escape(entry)):
            eigenbasis(CACHE_POT, CACHE_GRID, CACHE_K, cache_dir=str(tmp_path), first=asked)

    @pytest.mark.parametrize("first", [1, 2])
    def test_window_key_names_its_polish(self, first):
        assert spectral._cache_key(CACHE_POT, CACHE_GRID, CACHE_K, first) != _two_sweep_key(first)

    def test_two_sweep_window_entry_is_ignored(self, tmp_path):
        # a window entry under the key it had before windows took one sweep
        # stays where it is, unread
        eigenbasis(CACHE_POT, CACHE_GRID, CACHE_K, cache_dir=str(tmp_path), first=1)
        old = self._move(tmp_path, _two_sweep_key(1))
        with open(os.path.join(old, "basis.json"), "w") as fh:
            fh.write("{}")  # read, it would raise
        basis = eigenbasis(CACHE_POT, CACHE_GRID, CACHE_K, cache_dir=str(tmp_path), first=1)
        new = spectral._cache_key(CACHE_POT, CACHE_GRID, CACHE_K, 1)
        assert sorted(os.listdir(tmp_path)) == sorted([os.path.basename(old), new])
        assert basis.first == 1

    def test_key_differs_from_unversioned_scheme(self):
        assert spectral._cache_key(CACHE_POT, CACHE_GRID, CACHE_K) != _unversioned_key()

    def test_old_entry_is_ignored(self, tmp_path):
        old = tmp_path / _unversioned_key()
        old.mkdir()
        (old / "basis.json").write_text("{}")
        basis = eigenbasis(CACHE_POT, CACHE_GRID, CACHE_K, cache_dir=str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == sorted([old.name, os.path.basename(_entry(tmp_path))])
        assert basis.k == CACHE_K

    def test_entry_layout(self, tmp_path):
        basis = eigenbasis(CACHE_POT, CACHE_GRID, CACHE_K, cache_dir=str(tmp_path))
        entry = _entry(tmp_path)
        assert os.listdir(tmp_path) == [os.path.basename(entry)]
        assert sorted(os.listdir(entry)) == ["basis.json", "states.npy"]
        V = np.load(os.path.join(entry, "states.npy"), allow_pickle=False)
        assert V.shape == (CACHE_K, CACHE_GRID.n)
        assert np.array_equal(V, basis.states)
        with open(os.path.join(entry, "basis.json")) as fh:
            doc = json.load(fh)
        assert doc["states"] == "states.npy" and doc["k"] == CACHE_K

    def _corrupt(self, tmp_path, damage):
        eigenbasis(CACHE_POT, CACHE_GRID, CACHE_K, cache_dir=str(tmp_path))
        entry = _entry(tmp_path)
        damage(entry)
        with pytest.raises(ValueError, match=re.escape(entry)):
            eigenbasis(CACHE_POT, CACHE_GRID, CACHE_K, cache_dir=str(tmp_path))

    def test_truncated_states_raise(self, tmp_path):
        def truncate(entry):
            path = os.path.join(entry, "states.npy")
            with open(path, "r+b") as fh:
                fh.truncate(os.path.getsize(path) - 8)

        self._corrupt(tmp_path, truncate)

    @pytest.mark.parametrize("name", ["states.npy", "basis.json"])
    def test_missing_file_raises(self, tmp_path, name):
        self._corrupt(tmp_path, lambda entry: os.remove(os.path.join(entry, name)))

    def test_shape_mismatch_raises(self, tmp_path):
        def drop_mode(entry):
            path = os.path.join(entry, "states.npy")
            np.save(path, np.load(path)[:-1])

        self._corrupt(tmp_path, drop_mode)

    def test_non_finite_state_raises(self, tmp_path):
        def poison(entry):
            path = os.path.join(entry, "states.npy")
            V = np.load(path)
            V[1, 17] = np.nan
            np.save(path, V)

        self._corrupt(tmp_path, poison)

    def test_failed_validation_raises(self, tmp_path):
        def denormalize(entry):
            path = os.path.join(entry, "states.npy")
            np.save(path, 1.01 * np.load(path))

        self._corrupt(tmp_path, denormalize)

    def test_failed_write_leaves_no_entry(self, tmp_path, monkeypatch):
        def crash(path, arr, *args, **kwargs):
            with open(path, "wb") as fh:
                fh.write(b"\x93NUMPY")
            raise OSError("disk full")

        monkeypatch.setattr(spectral.np, "save", crash)
        with pytest.raises(OSError, match="disk full"):
            eigenbasis(CACHE_POT, CACHE_GRID, CACHE_K, cache_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []

    def test_two_processes_race_on_one_key(self, tmp_path):
        cache_dir, barrier = tmp_path / "cache", tmp_path / "barrier"
        cache_dir.mkdir()
        barrier.mkdir()
        src = os.path.dirname(os.path.dirname(os.path.abspath(madelung.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        env.pop("MADELUNG_CACHE_DIR", None)
        outs = [tmp_path / f"racer{i}.npy" for i in range(2)]
        racers = [
            subprocess.Popen([sys.executable, "-c", _RACER, str(cache_dir), str(barrier),
                              str(i), str(out)], env=env, stderr=subprocess.PIPE, text=True)
            for i, out in enumerate(outs)
        ]
        try:
            for p in racers:
                _, err = p.communicate(timeout=120)
                assert p.returncode == 0, err
        finally:
            for p in racers:
                p.kill()  # a no-op once the racer has exited
        fresh = eigenbasis(CACHE_POT, CACHE_GRID, CACHE_K).states
        for out in outs:
            assert np.array_equal(np.load(out), fresh)
        assert os.listdir(cache_dir) == [os.path.basename(_entry(cache_dir))]
        cached = eigenbasis(CACHE_POT, CACHE_GRID, CACHE_K, cache_dir=str(cache_dir))
        assert np.array_equal(cached.states, fresh)


MZI_POT = WellWithBarrier(2.0, 2437.5, 0.02)
MZI_GRID = Grid1D(-2.0, 2.0, 2001)


class TestIndexWindow:
    @pytest.fixture(scope="class")
    def full(self):
        return solve_eigen(build_hamiltonian(MZI_POT, MZI_GRID), 120, MZI_GRID, MZI_POT)

    def test_window_matches_the_full_slice(self, full):
        H = build_hamiltonian(MZI_POT, MZI_GRID)
        window = solve_eigen(H, 120, MZI_GRID, MZI_POT, first=40)
        assert window.k == 80 and window.first == 40 and window.meta["first"] == 40
        assert full.first == 0
        assert np.allclose(window.energies, full.energies[40:], rtol=1e-10, atol=0.0)
        # each pair meets the solver's residual bound, |H psi - E psi| <=
        # 1e-8 |psi| in the max norm, on the interior rows
        V = window.states
        HV = H.diagonal * V[:, 1:-1] + H.offdiag[0] * (V[:, :-2] + V[:, 2:])
        r = np.abs(HV - window.energies[:, None] * V[:, 1:-1]).max(axis=1)
        assert (r <= 1e-8 * np.abs(V).max(axis=1)).all()
        # the same modes, up to rounding
        overlap = np.abs(np.sum(window.states * full.states[40:], axis=1) * MZI_GRID.h)
        assert np.allclose(overlap, 1.0, atol=1e-8)

    def test_projection_reports_absolute_indices(self, full):
        window = eigenbasis(MZI_POT, MZI_GRID, 120, first=40)
        values = np.exp(1j * 60.0 * MZI_GRID.x - (MZI_GRID.x + 1.0) ** 2 / (4 * 0.23**2))
        a, b = project_field(window, values), project_field(full, values)
        assert np.array_equal(a.indices + 40, b.indices)
        assert a.meta["truncation_index"] == b.meta["truncation_index"]
        assert a.meta["captured_norm"] == pytest.approx(b.meta["captured_norm"], rel=1e-12)
        capped = cap_modes(a, 80)
        assert capped.indices.max() + 40 < 80
        assert capped.meta["truncation_index"] == cap_modes(b, 80).meta["truncation_index"]

    @pytest.mark.parametrize("first", [-1, 120, 121])
    def test_window_outside_the_range_refused(self, first):
        with pytest.raises(ValueError, match="first="):
            solve_eigen(build_hamiltonian(MZI_POT, MZI_GRID), 120, MZI_GRID, first=first)

    def test_analytic_basis_refuses_a_window(self):
        with pytest.raises(ValueError, match="finite-difference"):
            eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, 101), 4, first=1)


class TestProduct2D:
    def test_vortex_pair_degenerate(self):
        g1 = Grid1D(0.0, 1.0, 201)
        basis = product_basis_2d([(1, 2), (2, 1)], Grid2D(g1, g1))
        assert basis.energies[0] == pytest.approx(2.5 * math.pi**2, rel=1e-13)
        assert basis.energies[1] == basis.energies[0]

    def test_product_norm(self):
        g1 = Grid1D(0.0, 1.0, 301)
        basis = product_basis_2d([(1, 2)], Grid2D(g1, g1))
        assert quadrature(basis.grid, basis.states[0] ** 2) == pytest.approx(1.0, abs=1e-10)
