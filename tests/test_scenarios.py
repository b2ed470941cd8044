"""Scenario presets: configs, transmission, splitter tuning, run bundles."""

import hashlib
import math
import os
import zipfile

import numpy as np
import pytest

from madelung import scenarios as sc
from madelung.energy import (
    continuity_residual,
    decompose,
    frame_ledger,
    hj_residual,
    read_frame_table,
    write_frame_table,
)
from madelung.grids import partials, read_columns
from madelung.spectral import build_hamiltonian, sample_potential
from madelung.states import evaluate

TWO_TERM = (
    "well_superposition",
    "well_barrier_superposition",
    "ho_superposition",
    "quartic_superposition",
)


@pytest.fixture(scope="module")
def bundles():
    """Built (not run) bundles for every scenario except the tuned one."""
    names = [n for n in sc.SCENARIOS if n != "mzi_1d"]
    return {n: sc.build_scenario(sc.default_config(n)) for n in names}


@pytest.fixture(scope="module")
def mzi(mzi_build):
    return mzi_build[0]


@pytest.fixture(scope="module")
def splitter():
    c = sc.default_config("mzi_1d")
    return c, sc._launch_state(c)


def _transmission_at(c, launch, u0):
    return sc.transmission(sc._splitter_state(c, launch, u0), sc.MEASURE_TIME)


class TestConfig:
    def test_defaults(self):
        c = sc.default_config("well_barrier_superposition")
        assert c.grid_n == 2001 and c.frames == 64 and c.streamlines == 9
        assert c.barrier_height == 15.0 and c.barrier_width == 0.2
        r = sc.default_config("reflection_pulse")
        assert (r.packet_center, r.packet_momentum, r.packet_width) == (0.0, 25.0, 0.08)
        assert r.band_cap == 18
        m = sc.default_config("mzi_1d")
        assert (m.packet_center, m.packet_momentum, m.packet_width) == (-1.0, 60.0, 0.23)
        assert m.band_cap == 89 and m.barrier_height is None
        assert m.barrier_width == pytest.approx(0.02)
        v = sc.default_config("vortex_2d")
        assert v.grid_n == 161 and v.frames == 1

    @pytest.mark.parametrize("name", sc.SCENARIOS)
    def test_text_round_trip(self, tmp_path, name):
        c = sc.default_config(name, frames=16, eta=2e-3)
        p = tmp_path / "run.cfg"
        sc.save_config(c, p)
        assert sc.load_config(p) == c

    def test_text_parses_comments_and_blanks(self):
        c = sc.config_from_text("# a run\nname = well_superposition\n\ngrid_n = 501\n")
        assert c.name == "well_superposition" and c.grid_n == 501
        assert c.modes == 4  # unstated keys fall back to the stock values

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            sc.default_config("squircle")
        with pytest.raises(ValueError, match="unknown config keys"):
            sc.config_from_text("name = well_superposition\ncolor = red\n")
        with pytest.raises(ValueError, match="missing the scenario name"):
            sc.config_from_text("grid_n = 501\n")
        with pytest.raises(ValueError, match="grid_n"):
            sc.default_config("well_superposition", grid_n=2)
        with pytest.raises(ValueError, match="eta"):
            sc.default_config("well_superposition", eta=0.0)
        with pytest.raises(ValueError, match="positive"):
            sc.default_config("well_superposition", frames=0)
        with pytest.raises(ValueError, match="bad int for grid_n: '5.5'"):
            sc.config_from_text("name = well_superposition\ngrid_n = 5.5\n")
        # only a field declared `| None` takes none
        for key, kind in (("grid_n", "int"), ("eta", "float")):
            with pytest.raises(ValueError, match=f"bad {kind} for {key}: 'none'"):
                sc.config_from_text(f"name = well_superposition\n{key} = none\n")

    def test_repeated_key_refused(self):
        with pytest.raises(ValueError, match="'grid_n' given twice"):
            sc.config_from_text("name = well_superposition\ngrid_n = 501\ngrid_n = 801\n")
        with pytest.raises(ValueError, match="'name' given twice"):
            sc.config_from_text("name = well_superposition\nname = ho_superposition\n")

    @pytest.mark.parametrize("name, built, asked", [
        ("vortex_2d", 1, 5), ("ho_eigenstates", 2, 4), ("quartic_eigenstates", 2, 4)])
    def test_frames_a_scenario_cannot_honour_refused(self, name, built, asked):
        # these scenarios always build the same frames, so another count
        # would be recorded in the manifest without being run
        assert sc.default_config(name).frames == built
        with pytest.raises(ValueError, match=f"always builds {built} frame.*frames = {asked}"):
            sc.build_scenario(sc.default_config(name, frames=asked))

    @pytest.mark.parametrize("name, settings", [
        ("well_superposition", dict(barrier_height=15.0, barrier_width=0.3)),
        ("ho_superposition", dict(eta=2e-3, tol=0.1, packet_center=0.5, band_cap=3)),
    ], ids=["well_barrier", "ho_packet"])
    def test_settings_a_scenario_does_not_read_refused(self, monkeypatch, name, settings):
        # each of these built the stock basis and states bit for bit while
        # its config.txt recorded the settings; refused before any solve
        def no_solve(*args, **kwargs):
            raise AssertionError("solved despite an unread setting")

        monkeypatch.setattr(sc, "eigenbasis", no_solve)
        for field, value in settings.items():
            with pytest.raises(ValueError, match=f"{name} does not read {field}; "
                                                 f"the config sets {field} = {value!r}"):
                sc.build_scenario(sc.default_config(name, **{field: value}))
        with pytest.raises(ValueError, match=f"{name} does not read {', '.join(settings)};"):
            sc.build_scenario(sc.default_config(name, **settings))

    def test_vortex_modes_refused(self):
        # _build_vortex always builds its two VORTEX_PAIRS modes
        with pytest.raises(ValueError, match="vortex_2d always builds 2 mode.*modes = 7"):
            sc.build_scenario(sc.default_config("vortex_2d", modes=7))

    def test_config_written_with_the_wide_barrier_switch_loads(self):
        # a config.txt of an mzi_1d bundle written while the full-width/50
        # barrier was an on/off switch, byte for byte
        old = ("name = mzi_1d\ngrid_n = 2001\nmodes = 140\nframes = 2\n"
               "streamlines = 1\neta = 0.001\ntol = 0.01\npacket_center = -1.0\n"
               "packet_momentum = 60.0\npacket_width = 0.23\nband_cap = 89\n"
               "barrier_height = none\nbarrier_width = 0.02\nwide_barrier = false\n"
               "write_fields = true\n")
        c = sc.config_from_text(old)
        assert c == sc.default_config("mzi_1d", frames=2, streamlines=1)
        assert sc.config_to_text(c) == (old.replace("wide_barrier = false\n", "")
                                        .replace("write_fields = true\n", ""))
        # each retired key keeps the one value every run now has, and any
        # other value is refused by name
        for line, refused in (("wide_barrier = false", ("true", "no")),
                              ("write_fields = true", ("false", "maybe"))):
            key = line.split(" = ")[0]
            for value in refused:
                with pytest.raises(ValueError, match=f"^{key} is gone: "):
                    sc.config_from_text(old.replace(line, f"{key} = {value}"))
            assert not hasattr(c, key)
        with pytest.raises(ValueError, match="set barrier_width = 0.08"):
            sc.config_from_text(old.replace("wide_barrier = false", "wide_barrier = true"))


class TestTransmission:
    def test_opaque_barrier(self, splitter):
        c, launch = splitter
        assert _transmission_at(c, launch, 1e4) < 0.01

    def test_open_well(self, splitter):
        c, launch = splitter
        assert _transmission_at(c, launch, 0.0) > 0.99

    def test_not_cleared_error(self, splitter):
        c, launch = splitter
        s = sc.project_field(
            sc.eigenbasis(sc.WellWithBarrier(2.0, 2437.5, 0.02), launch.grid, c.modes),
            evaluate(launch, 0.0), eta=c.eta)
        # at one sixtieth the packet is astride the barrier
        with pytest.raises(ValueError, match="probability"):
            sc.transmission(s, 1.0 / 60.0)

    def test_clearance_reads_the_sampled_barrier(self, monkeypatch):
        # x[995] rounds to just left of -0.01 but sample_potential raises it:
        # a density on that edge point has not cleared the barrier
        g = sc.Grid1D(-sc.MZI_HALF_WIDTH, sc.MZI_HALF_WIDTH, 2001)
        basis = sc.eigenbasis(sc.WellWithBarrier(2.0, 2437.5, 0.02), g, 2)
        assert g.x[995] < -0.01 and sample_potential(basis.potential, g)[995] == 2437.5
        psi = np.zeros(g.n, dtype=complex)
        psi[[500, 995]] = 1.0
        monkeypatch.setattr(sc, "evaluate", lambda s, t: psi)
        with pytest.raises(ValueError, match="not cleared"):
            sc.transmission(sc.superposition(basis, [0], [1.0]), sc.MEASURE_TIME)

    def test_requires_1d(self, bundles):
        with pytest.raises(ValueError, match="1D"):
            sc.transmission(bundles["vortex_2d"].states[0], 0.01)


class TestTuner:
    def test_converges_to_half(self, mzi):
        r = mzi.tuning
        assert r is not None
        assert abs(r.transmission - 0.5) < 0.01
        assert r.iterations <= 30
        assert r.bracket[0] < r.U0_star <= r.bracket[1]
        assert abs(r.U0_star - 2437.5) < 50.0

    def test_build_solves_probe_windows_then_u0_star_in_full(self, mzi_build):
        # the ten probes solve index windows; the bundle's state is U0*
        # solved once more in full, the state a build at that height gets
        bundle, _, solves = mzi_build
        r = bundle.tuning
        assert len(r.history) == 10
        assert solves == [(50, 112)] * 10 + [(0, 139)]
        assert r.probe_windows == ((50, 112, False),) * 10
        want = sc._splitter_state(bundle.config, r.launch, r.U0_star)
        got = bundle.states[0]
        assert bundle.basis is got.basis and got.basis.first == 0
        assert np.array_equal(got.basis.energies, want.basis.energies)
        assert np.array_equal(got.basis.states, want.basis.states)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.coeffs, want.coeffs)
        assert got.meta == want.meta

    def test_build_makes_the_launch_once(self, mzi_build):
        # the tuner's launch is the one the bundle reports
        bundle, calls, _ = mzi_build
        assert calls["_launch_state"] == 1
        launch = bundle.tuning.launch
        band = bundle.extras["band"]
        assert band["launch_truncation_index"] == launch.meta["truncation_index"]
        assert "launch" not in sc.tuning_record(bundle.tuning)

    def test_launch_is_evaluated_once_by_the_tuner_and_once_by_the_build(self, mzi_build):
        # every probe projects the launch values the tuner computed once;
        # each probe's transmission evaluates its own barrier-well state
        bundle, calls, _ = mzi_build
        assert calls["evaluate InfiniteWell"] == 2
        assert calls["evaluate WellWithBarrier"] >= len(bundle.tuning.history)

    @pytest.mark.parametrize("u0", [250.0, 2437.5, 3750.0, 4000.0, 5500.0, 16000.0])
    def test_window_probe_matches_full_probe(self, splitter, u0):
        c, launch = splitter
        window, (first, last, fell_back) = sc._probe_state(c, launch, u0)
        full = sc._splitter_state(c, launch, u0)
        assert (first, last, fell_back) == (50, 112, False)
        assert window.basis.first == first and window.basis.k == last - first + 1
        assert np.array_equal(window.indices + first, full.indices)
        assert window.meta["truncation_index"] == full.meta["truncation_index"]
        assert window.meta["captured_norm"] == pytest.approx(
            full.meta["captured_norm"], rel=1e-12, abs=0.0)
        t_window = sc.transmission(window, sc.MEASURE_TIME)
        t_full = sc.transmission(full, sc.MEASURE_TIME)
        assert t_window == pytest.approx(t_full, rel=1e-12, abs=0.0)

    def test_probe_falls_back_to_the_full_solve(self, splitter, monkeypatch):
        # with no margin the launch's own edge modes sit on the window
        # edges, so the probe solves in full: the full probe's bits
        c, launch = splitter
        monkeypatch.setattr(sc, "PROBE_BELOW", 0)
        monkeypatch.setattr(sc, "PROBE_ABOVE", 0)
        state, window = sc._probe_state(c, launch, 2437.5)
        assert window == (0, c.modes - 1, True)
        full = sc._splitter_state(c, launch, 2437.5)
        assert state.basis.first == 0
        assert np.array_equal(state.basis.states, full.basis.states)
        assert np.array_equal(state.basis.energies, full.basis.energies)
        assert np.array_equal(state.indices, full.indices)
        assert np.array_equal(state.coeffs, full.coeffs)

    def test_ladder_monotone(self, mzi):
        hist = mzi.tuning.history
        ladder = [t for u, t in hist[:5]]
        assert all(a > b for a, b in zip(ladder, ladder[1:]))

    def test_degenerate_tolerance(self):
        r = sc.tune_beam_splitter(sc.default_config("mzi_1d", tol=0.5))
        assert len(r.history) == 1 and r.iterations == 0

    def test_no_bracket_error(self, monkeypatch):
        monkeypatch.setattr(sc, "PROBE_RANGE", (1.0, 2.0))
        with pytest.raises(ValueError, match="bracket") as err:
            sc.tune_beam_splitter(sc.default_config("mzi_1d", tol=1e-4))
        assert "(1.0," in str(err.value)  # probed pairs are listed

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError, match="positive"):
            sc.tune_beam_splitter(sc.default_config("mzi_1d", tol=-1.0))


def _digest_dir(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for nm in sorted(names):
            p = os.path.join(dirpath, nm)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


class TestRunBundle:
    def test_well_files_and_rerun_identical(self, tmp_path):
        c = sc.default_config("well_superposition", frames=8, streamlines=5)
        m1 = sc.run_scenario(c, tmp_path / "a")
        m2 = sc.run_scenario(c, tmp_path / "b")
        assert _digest_dir(tmp_path / "a") == _digest_dir(tmp_path / "b")
        want = {"manifest.json", "config.txt", "nodes.json", "streamlines.csv"}
        have = set(os.listdir(tmp_path / "a"))
        assert want <= have
        assert len(m1["files"]["frames"]) == 8
        assert m1 == m2

    def test_well_two_node_events_per_period(self, tmp_path):
        c = sc.default_config("well_superposition", frames=4, streamlines=3)
        m = sc.run_scenario(c, tmp_path / "w")
        ev = m["derived"]["node_events"]
        assert len(ev) == 2
        xs = sorted(e["x"] for e in ev)
        assert xs[0] == pytest.approx(-xs[1], abs=1e-9)
        dt = abs(ev[1]["t"] - ev[0]["t"])
        assert dt == pytest.approx(m["derived"]["period"] / 2.0, rel=1e-9)
        assert all(e["refined"] for e in ev)

    def test_eigen_scenario_has_one_stationary_line(self, tmp_path):
        m = sc.run_scenario(sc.default_config("ho_eigenstates"), tmp_path / "e")
        assert [f["state"] for f in m["files"]["frames"]] == ["mode_0", "mode_1"]
        ev = m["derived"]["node_events"]
        assert len(ev) == 1
        assert ev[0]["degenerate"] and abs(ev[0]["x"]) < 2e-3
        search = m["derived"]["diagnostics"]["node_search"]
        assert search["singular"] == search["candidates"] > 0
        assert search["refined"] == 0 and search["events_outside_window"] == 0
        # frames do not advance, so lines take streamline_bundle's default times
        lines = read_columns(tmp_path / "e" / m["files"]["streamlines"])
        assert lines["t"].size == m["config"]["streamlines"] * 65
        assert np.unique(lines["t"]).size == 65

    def test_reflection_band_and_nodes(self, tmp_path):
        c = sc.default_config("reflection_pulse", frames=8, streamlines=3)
        m = sc.run_scenario(c, tmp_path / "r")
        assert m["derived"]["band"]["truncation_index"] == 18
        assert m["derived"]["band"]["cap_dropped_norm"] < 1e-12
        ev = m["derived"]["node_events"]
        assert len(ev) >= 2
        for e in ev:
            assert 0.0 <= e["t"] <= sc.REFLECT_SPAN
            assert -0.5 <= e["x"] <= 0.5

    def test_vortex_manifest(self, tmp_path):
        m = sc.run_scenario(sc.default_config("vortex_2d"), tmp_path / "v")
        v = m["derived"]["vortex"]
        assert abs(v["fit_exponent"] + 2.0) < 0.05
        assert v["circulation_along_swirl"] == pytest.approx(2 * math.pi, rel=1e-3)
        assert v["circulation_counterclockwise"] == pytest.approx(-2 * math.pi, rel=1e-3)
        ev = m["derived"]["node_events"]
        assert len(ev) == 1 and ev[0]["refined"]
        assert ev[0]["x"][0] == pytest.approx(0.5, abs=1e-6)
        assert ev[0]["x"][1] == pytest.approx(0.5, abs=1e-6)
        search = m["derived"]["diagnostics"]["node_search"]
        assert set(search) == {"candidates", "refined", "singular", "out_of_bounds",
                               "newton_iterations_max", "events_outside_window"}
        assert search["refined"] == search["candidates"] > 0
        loops = (tmp_path / "v" / "loops.csv").read_text().splitlines()
        assert loops[0] == "seed_q,t,x,y"
        assert len({ln.split(",")[0] for ln in loops[1:]}) == 4

    def test_tuned_run_records_probe_windows(self, tmp_path, monkeypatch):
        # derived.diagnostics.tuning holds [first, last, fell_back] per
        # probe; tuning.json's record (derived.tuning) keeps its keys
        c = sc.default_config("mzi_1d", frames=2, streamlines=1)
        windows = ((38, 112, False), (0, 139, True))

        def tuned(c):
            return sc.TuningResult(2437.5, 0.5, 1, (2000.0, 4000.0),
                                   ((4000.0, 0.2), (2437.5, 0.5)), sc._launch_state(c),
                                   windows)

        monkeypatch.setattr(sc, "tune_beam_splitter", tuned)
        m = sc.run_scenario(c, tmp_path / "t")
        assert m["derived"]["diagnostics"]["tuning"] == {
            "probe_windows": [[38, 112, False], [0, 139, True]]}
        assert set(m["derived"]["tuning"]) == {"U0_star", "transmission", "iterations",
                                               "bracket", "history"}
        fixed = sc.run_scenario(sc.default_config("mzi_1d", frames=2, streamlines=1,
                                                  barrier_height=2437.5), tmp_path / "f")
        assert "tuning" not in fixed["derived"]["diagnostics"]

    def test_fd_basis_records_its_residual(self, tmp_path, monkeypatch):
        built, build = [], sc.build_scenario

        def recorded(c):
            built.append(build(c))
            return built[-1]

        monkeypatch.setattr(sc, "build_scenario", recorded)
        c = sc.default_config("mzi_1d", frames=2, streamlines=1, barrier_height=2437.5)
        rec = sc.run_scenario(c, tmp_path / "f")["derived"]["diagnostics"]["basis"]
        basis = built[0].basis
        H = build_hamiltonian(basis.potential, basis.grid)
        V = basis.states[:, 1:-1]
        HV = H.diagonal * V
        HV[:, :-1] += H.offdiag * V[:, 1:]
        HV[:, 1:] += H.offdiag * V[:, :-1]
        r = np.abs(HV - basis.energies[:, None] * V).max(axis=1) / np.abs(V).max(axis=1)
        assert rec == {"method": "fd_tridiag", "first": 0, "last": c.modes - 1,
                       "max_residual": r.max()}
        assert rec["max_residual"] < 1e-8

    def test_unpolished_pairs_are_recorded(self, tmp_path):
        # pair 79 of this basis blows up in the polish and keeps LAPACK's pair
        c = sc.default_config("mzi_1d", grid_n=1001, barrier_height=1000.0, frames=2,
                              streamlines=1)
        rec = sc.run_scenario(c, tmp_path / "u")["derived"]["diagnostics"]["basis"]
        assert rec["unpolished"] == [79]
        assert set(rec) == {"method", "first", "last", "max_residual", "unpolished"}
        assert rec["max_residual"] < 1e-8

    def test_analytic_basis_records_no_residual(self, tmp_path):
        c = sc.default_config("well_superposition", frames=2, streamlines=1)
        m = sc.run_scenario(c, tmp_path / "w")
        assert m["derived"]["diagnostics"]["basis"] == {
            "method": "analytic_well", "first": 0, "last": c.modes - 1}


LEDGER_COLS = ("Q", "K_a", "K_s", "Q_r", "K_c", "E_p", "K_cl", "U",
               "q", "k_a", "k_s", "q_r", "k_c", "e_p", "u", "rho")
MASK_COLS = ("soft_qka", "hard_qka", "soft_qrkc", "hard_qrkc",
             "forbidden_global", "forbidden_local")


# the float columns frames.npz stores; read_frame_table rebuilds the rest
STORED_COLS = ("rho", "q", "K_a", "k_s", "q_r", "e_p")


def _bits(a: np.ndarray) -> tuple:
    return a.dtype, a.shape, a.tobytes()


def _oracle_put(zf, name, array):
    info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
    with zf.open(info, "w", force_zip64=True) as fh:
        np.lib.format.write_array(fh, array, allow_pickle=False)


def oracle_write_frame_table(path, times, grid, table):
    """The frame archive as written before it dropped the derivable
    columns: t, the grid axes and every ledger column, mask and valid in
    full, U repeated in every frame and no E_plus."""
    with zipfile.ZipFile(path, "w") as zf:
        _oracle_put(zf, "t", np.asarray(times, dtype=float))
        for name, axis in zip(("x", "y"), grid.axes):
            _oracle_put(zf, name, axis.x)
        for c in LEDGER_COLS + MASK_COLS + ("valid",):
            _oracle_put(zf, c, table[c])


def _stock_frame_ledger(name):
    """A short stock run's frames, grid and ledger: four frames (vortex_2d
    has one and the eigenstate scenarios two), mzi_1d at its tuned barrier
    height without tuning."""
    fixed = ("vortex_2d", "ho_eigenstates", "quartic_eigenstates")
    over = {} if name in fixed else {"frames": 4}
    if name == "mzi_1d":
        over["barrier_height"] = 2437.5
    b = sc.build_scenario(sc.default_config(name, **over))
    table = frame_ledger([b.states[si] for si in b.frame_states], b.frame_times)
    return b.frame_times, b.basis.grid, table


class TestFrameTable:
    @pytest.mark.parametrize("name, overrides", [
        ("well_superposition", dict(frames=4, streamlines=2)),
        ("vortex_2d", {}),
    ])
    def test_archive_equals_ledger_of_every_frame(self, tmp_path, name, overrides):
        c = sc.default_config(name, **overrides)
        m = sc.run_scenario(c, tmp_path / "r")
        assert not (tmp_path / "r" / "frames").exists()
        assert m["files"]["frame_table"] == "frames.npz"
        path = tmp_path / "r" / "frames.npz"
        with np.load(path, allow_pickle=False) as z:
            raw = {k: z[k] for k in z.files}
        table = read_frame_table(path)
        for k in raw:
            got = table[k][0] if k == "U" else table[k]
            assert _bits(got) == _bits(raw[k]), k
        assert table["U"].shape == table["rho"].shape

        b = sc.build_scenario(c)
        grid = b.states[0].grid
        axes = ["x"] if grid.ndim == 1 else ["x", "y"]
        assert set(raw) == {"t", "E_plus", "U", "valid", *axes, *STORED_COLS, *MASK_COLS}
        assert set(table) == {"t", "E_plus", "valid", *axes, *LEDGER_COLS, *MASK_COLS}
        assert _bits(table["t"]) == _bits(np.asarray(b.frame_times, dtype=float))
        if grid.ndim == 1:
            assert _bits(table["x"]) == _bits(grid.x)
        else:
            assert _bits(table["x"]) == _bits(grid.grid_x.x)
            assert _bits(table["y"]) == _bits(grid.grid_y.x)
        assert len(m["files"]["frames"]) == len(b.frame_times)
        for i, (t, si) in enumerate(zip(b.frame_times, b.frame_states)):
            assert m["files"]["frames"][i] == {"index": i, "t": float(t),
                                               "state": b.labels[si]}
            d = decompose(b.states[si], float(t))
            assert table["E_plus"][i] == d.E_plus
            for col in LEDGER_COLS:
                want = getattr(d, col)
                assert table[col].dtype == np.float64, col
                assert _bits(table[col][i]) == _bits(want), (i, col)
            for col in MASK_COLS:
                assert table[col].dtype == bool, col
                assert _bits(table[col][i]) == _bits(getattr(d, col)), (i, col)
            assert _bits(table["valid"][i]) == _bits(d.valid)

    @pytest.mark.parametrize("name", sc.SCENARIOS)
    def test_archive_reads_back_the_full_layout(self, tmp_path, name):
        times, grid, table = _stock_frame_ledger(name)
        write_frame_table(tmp_path / "new.npz", times, grid, table)
        oracle_write_frame_table(tmp_path / "old.npz", times, grid, table)
        with np.load(tmp_path / "old.npz", allow_pickle=False) as z:
            want = {k: z[k] for k in z.files}
        got = read_frame_table(tmp_path / "new.npz")
        assert set(got) == set(want) | {"E_plus"}
        for k in want:
            assert _bits(got[k]) == _bits(want[k]), k
        assert _bits(got["E_plus"]) == _bits(table["E_plus"])
        # a derived column read alone is built from the same stored bits
        part = read_frame_table(tmp_path / "new.npz", ("K_cl", "U"))
        assert list(part) == ["K_cl", "U"]
        assert _bits(part["K_cl"]) == _bits(want["K_cl"])
        assert _bits(part["U"]) == _bits(want["U"])
        assert (tmp_path / "new.npz").stat().st_size < 0.5 * (tmp_path / "old.npz").stat().st_size

    def test_old_layout_is_refused(self, tmp_path):
        times, grid, table = _stock_frame_ledger("well_superposition")
        path = tmp_path / "old.npz"
        oracle_write_frame_table(path, times, grid, table)
        for keys in (None, ("rho",), ("Q",)):
            with pytest.raises(ValueError, match=r"old\.npz.*re-run the scenario"):
                read_frame_table(path, keys)

    def test_unknown_key_is_refused(self, tmp_path):
        times, grid, table = _stock_frame_ledger("well_superposition")
        path = tmp_path / "f.npz"
        write_frame_table(path, times, grid, table)
        for keys in (("rho", "nope"), ("y",), ("Q", "soft")):
            with pytest.raises(ValueError, match="valid keys: t, x, E_plus, U, rho") as err:
                read_frame_table(path, keys)
            assert f"f.npz has no key {keys[-1]}; " in str(err.value)
            assert str(err.value).endswith("K_cl, k_a, k_c, u")

    def test_bytes_do_not_depend_on_the_clock(self, tmp_path, monkeypatch):
        b = sc.build_scenario(sc.default_config("well_superposition", frames=2))
        table = frame_ledger([b.states[0]] * 2, b.frame_times)
        blobs = []
        for k, now in enumerate((1.0e9, 1.7e9)):
            monkeypatch.setattr("time.time", lambda now=now: now)
            path = tmp_path / f"f{k}.npz"
            write_frame_table(path, b.frame_times, b.basis.grid, table)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        with zipfile.ZipFile(tmp_path / "f0.npz") as zf:
            infos = zf.infolist()
        assert {i.date_time for i in infos} == {(1980, 1, 1, 0, 0, 0)}
        assert {i.compress_type for i in infos} == {zipfile.ZIP_STORED}


class TestPhysicsAcrossScenarios:
    def test_quarter_period_density_symmetric(self, bundles):
        for name in TWO_TERM:
            b = bundles[name]
            rho = np.abs(evaluate(b.states[0], b.period / 4.0)) ** 2
            asym = np.abs(rho - rho[::-1]).max() / rho.max()
            assert asym < 1e-12, name

    def test_quartic_flux_in_central_soft_band(self, bundles):
        b = bundles["quartic_superposition"]
        s = b.states[0]
        g = s.grid
        d = decompose(s, b.period / 4.0)
        idx = np.where(d.soft_qka)[0]
        runs = np.split(idx, np.where(np.diff(idx) > 1)[0] + 1)
        central = [r for r in runs if g.x[r[0]] < 0.0 < g.x[r[-1]]]
        assert len(central) == 1  # one contiguous band straddles the barrier
        band = central[0]
        assert g.x[band[0]] < -0.2 and g.x[band[-1]] > 0.2
        f = evaluate(s, b.period / 4.0)
        flux = np.imag(np.conj(f) * partials(g, f)[0][0])
        assert abs(flux[g.n // 2]) > 0.5
        assert np.abs(flux[band]).max() > 0.5

    # ceilings measured at the stock resolutions, x3 headroom; the
    # refinement law itself is covered by the field-algebra suites
    RESID = {
        "well_superposition": (1e-5, 3e-5),
        "well_barrier_superposition": (5e-5, 2e-5),
        "ho_superposition": (2e-4, 4e-3),
        "quartic_superposition": (5e-5, 1e-4),
        "reflection_pulse": (1e-3, 0.7),
        "mzi_1d": (0.1, 0.4),
        "vortex_2d": (0.5, 0.06),
    }

    @pytest.mark.parametrize("name", sorted(RESID))
    def test_residual_suites(self, name, bundles, mzi):
        b = mzi if name == "mzi_1d" else bundles[name]
        s = b.states[0]
        tf = b.span[0] + 0.37 * (b.span[1] - b.span[0])
        d = decompose(s, tf)
        hj, hj_ok = hj_residual(d)
        ct, ct_ok = continuity_residual(s, tf, 1e-4 * (b.span[1] - b.span[0]))
        rho = d.rho
        clear = rho > 1e-3 * rho.max()
        scale = np.abs(d.K_a[d.valid & clear]).max()
        hj_rel = np.abs(hj[hj_ok & clear]).max() / scale
        ct_abs = np.abs(ct[ct_ok & clear]).max()
        lim_hj, lim_ct = self.RESID[name]
        assert hj_rel < lim_hj, f"{name}: hj {hj_rel:.3e}"
        assert ct_abs < lim_ct, f"{name}: continuity {ct_abs:.3e}"


class TestMZI:
    def test_band_and_barrier_metadata(self, mzi):
        assert mzi.extras["band"]["launch_truncation_index"] == 89
        assert mzi.extras["band"]["truncation_index"] == 89
        assert mzi.extras["band"]["launch_cap_dropped_norm"] < 1e-5
        bar = mzi.extras["barrier"]
        assert bar["width"] == pytest.approx(0.02)
        assert bar["width_on_grid"] == pytest.approx(0.02)

    @pytest.mark.parametrize("name, settings, message", [
        ("mzi_1d", dict(packet_momentum=70.0), "band_cap = 89 drops 0.446 "),
        ("reflection_pulse", dict(band_cap=12), "band_cap = 12 drops 0.0105 "),
    ])
    def test_a_cap_past_the_budget_is_refused_before_the_barrier_solve(
            self, monkeypatch, name, settings, message):
        # at packet_momentum 70 the stock cap 89 (k ~ 69.9) drops 44.6% of
        # the packet: the run would launch another packet than it records
        solved, solve = [], sc.eigenbasis

        def recorded(potential, *args, **kwargs):
            solved.append(type(potential).__name__)
            return solve(potential, *args, **kwargs)

        monkeypatch.setattr(sc, "eigenbasis", recorded)
        with pytest.raises(ValueError, match=message + "of the packet's norm"):
            sc.build_scenario(sc.default_config(name, **settings))
        assert solved == ["InfiniteWell"]

    def test_round_trip_recombines_into_one_port(self, mzi):
        rep = sc._round_trip_report(mzi.states[0], sc.MZI_SPAN)
        assert rep["launch_side_probability"] + rep["far_side_probability"] == pytest.approx(1.0)
        assert rep["recombination_fraction"] > 0.95
        assert rep["exit_port"] in ("launch", "far")

    def test_tuning_and_round_trip_come_from_the_builder(self, mzi):
        assert mzi.extras["tuning"] == sc.tuning_record(mzi.tuning)
        assert mzi.extras["round_trip"] == sc._round_trip_report(mzi.states[0],
                                                                 sc.MZI_SPAN)
        fixed = sc.build_scenario(sc.default_config("mzi_1d", barrier_height=2437.5))
        assert "tuning" not in fixed.extras and "round_trip" in fixed.extras

    def test_full_width_fiftieth_barrier(self):
        # the paper's alternate reading of the barrier width, one fiftieth
        # of the full well width, is the barrier_width setting 0.08
        c = sc.default_config("mzi_1d", barrier_width=0.08, barrier_height=2437.5)
        b = sc.build_scenario(c)
        assert b.extras["barrier"]["width"] == c.barrier_width == 0.08
        assert b.basis.potential.barrier_width == 0.08

    @pytest.mark.parametrize("name, field", [
        ("mzi_1d", "barrier_width"),
        ("mzi_1d", "packet_momentum"),
        ("well_barrier_superposition", "barrier_height"),
        ("well_barrier_superposition", "barrier_width"),
        ("reflection_pulse", "packet_width"),
    ])
    def test_a_needed_value_set_to_none_is_refused(self, name, field):
        over = {field: None}
        if name == "mzi_1d":
            over["barrier_height"] = 2437.5
        with pytest.raises(ValueError, match=f"{name} needs {field}; the config sets none"):
            sc.build_scenario(sc.default_config(name, **over))

    def test_fixed_height_skips_tuning(self):
        c = sc.default_config("mzi_1d", barrier_height=2437.5)
        b = sc.build_scenario(c)
        assert b.tuning is None
        assert b.extras["barrier"]["height"] == 2437.5
