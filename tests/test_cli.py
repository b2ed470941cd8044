"""CLI wiring: files land where promised, schemas hold, errors are JSON.

Physics is covered by the module suites; these tests only check the shell.
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from madelung import render as rd
from madelung import scenarios as sc
from madelung.cli import _config_from_args, build_parser, run_cli
from madelung.grids import field_to_csv
from madelung.scenarios import build_scenario, default_config, run_scenario, save_config
from madelung.spectral import load_basis
from madelung.states import evaluate


def _fresh(code, *args) -> str:
    """stdout of code run with args in a fresh interpreter on this source
    tree, with the eigenbasis cache off."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sc.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "MADELUNG_CACHE_DIR"}
    env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    return out.stdout


_LOADED = "print(*(m in sys.modules for m in ('scipy', 'scipy.linalg', 'scipy.optimize')))"


def test_import_leaves_scipy_integrate_unloaded():
    # scipy loads on first use: scipy.linalg at the first finite-difference
    # eigensolve, scipy.optimize at the first node-dip refinement, so the
    # import itself loads no scipy module at all
    code = "import sys, madelung.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _fresh(code).strip() == "[]"


_RUN = ("import sys; from madelung.cli import run_cli; code = run_cli(sys.argv[1:]); "
        + _LOADED + "; sys.exit(code)")
_DIP = (
    "import math, sys\n"
    "import numpy as np\n"
    "from madelung import Grid1D, InfiniteWell, eigenbasis, integrate_streamline, superposition\n"
    "s = superposition(eigenbasis(InfiniteWell(1.0), Grid1D(-1.0, 1.0, 2001), 4), [0, 2],\n"
    "                  np.array([1.0, 1.0]) / math.sqrt(2.0))\n"
    "print('scipy.optimize' in sys.modules)\n"
    "t_node = 2.0 / math.pi\n"
    "ln = integrate_streamline(s, 0.0, (1.0 / math.pi, t_node + 0.05))\n"
    "print(ln.flagged, abs(ln.t_flag - t_node) < 1e-4)\n" + _LOADED
)


@pytest.mark.parametrize("code, argv, last_lines", [
    (_RUN, ["scenario", "--name", "well_superposition"], ["False False False"]),
    (_RUN, ["scenario", "--name", "quartic_eigenstates"], ["True True False"]),
    # TestStreamlines::test_pause_when_node_arrives, whose dip refines
    (_DIP, [], ["False", "True True", "True True True"]),
], ids=["analytic_run", "fd_run", "node_dip"])
def test_scipy_loads_on_first_use(tmp_path, code, argv, last_lines):
    # inside pytest scipy.stats has already loaded scipy.optimize, so only a
    # fresh process reaches the deferred imports cold
    lines = _fresh(code, *argv, "--out", str(tmp_path / "run")).strip().splitlines()
    assert lines[-len(last_lines):] == last_lines


def shaded_area(svg_path) -> dict:
    """Total drawn area per shading class, from the rect elements."""
    with open(svg_path) as fh:
        text = fh.read()
    areas = {"soft": 0.0, "hard": 0.0}
    pat = re.compile(r'<rect class="(soft|hard)"[^>]*width="([0-9.]+)"[^>]*height="([0-9.]+)"')
    for cls, w, h in pat.findall(text):
        areas[cls] += float(w) * float(h)
    return areas


def _run(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def well_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ws"
    code = run_cli(["scenario", "--name", "well_superposition", "--frames", "4",
                    "--streamlines", "3", "--out", str(out)])
    assert code == 0
    return out


class TestScenario:
    def test_bundle_and_figures(self, well_run):
        for name in ("manifest.json", "config.txt", "streamlines.csv",
                     "nodes.json", "streamlines.svg", "densities.svg",
                     "potential_landscape.svg"):
            assert (well_run / name).exists(), name
        manifest = json.loads((well_run / "manifest.json").read_text())
        assert manifest["name"] == "well_superposition"
        assert len(manifest["files"]["frames"]) == 4

    def test_summary_lines(self, capsys, tmp_path):
        code, out, err = _run(capsys, ["scenario", "--name", "ho_eigenstates",
                                       "--out", str(tmp_path / "e")])
        assert code == 0 and err == ""
        lines = [ln for ln in out.splitlines() if ln.startswith("wrote ")]
        assert any(ln.endswith("manifest.json") for ln in lines)
        assert any(ln.endswith(".svg") for ln in lines)

    def test_config_without_the_frame_archive_is_refused(self, capsys, tmp_path):
        # every run writes frames.npz; a config that asks for a run without
        # it is refused by the key's name before anything is written
        cfg = tmp_path / "nf.cfg"
        save_config(default_config("well_superposition", frames=2, streamlines=2), cfg)
        cfg.write_text(cfg.read_text() + "write_fields = false\n")
        out = tmp_path / "nf"
        code, stdout, err = _run(capsys, ["scenario", "--config", str(cfg),
                                          "--out", str(out)])
        assert code == 1 and stdout == ""
        doc = json.loads(err)
        assert doc["error"] == "ValueError" and doc["message"].startswith("write_fields")
        assert not out.exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "ho.cfg"
        save_config(default_config("ho_superposition"), cfg)
        args = build_parser().parse_args(["scenario", "--config", str(cfg),
                                          "--frames", "3", "--out", str(tmp_path)])
        assert _config_from_args(args) == default_config("ho_superposition", frames=3)

    def test_barrier_width_flag_is_recorded_as_run(self, capsys, tmp_path):
        # the paper's alternate barrier, one fiftieth of the full well width
        out = tmp_path / "m"
        code, _, err = _run(capsys, ["scenario", "--name", "mzi_1d", "--barrier-height", "2437.5",
                                     "--barrier-width", "0.08", "--frames", "2",
                                     "--streamlines", "1", "--out", str(out)])
        assert code == 0 and err == ""
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["barrier_width"] == manifest["derived"]["barrier"]["width"] == 0.08
        assert "wide_barrier" not in manifest["config"]
        assert "width_rule" not in manifest["derived"]["barrier"]
        assert "barrier_width = 0.08\n" in (out / "config.txt").read_text()

    def test_flags_parse_by_the_declared_field_type(self):
        args = build_parser().parse_args(["scenario", "--name", "mzi_1d", "--grid-n", "501",
                                          "--barrier-width", "0.08", "--out", "x"])
        assert _config_from_args(args) == default_config("mzi_1d", grid_n=501,
                                                         barrier_width=0.08)
        assert type(args.grid_n) is int and type(args.barrier_width) is float


class TestRender:
    def test_shading_selects_mask_pair(self, capsys, well_run):
        code, out, _ = _run(capsys, ["render", "--run", str(well_run),
                                     "--kind", "streamlines", "--shading", "qrkc"])
        assert code == 0
        qrkc = well_run / "streamlines_qrkc.svg"
        assert qrkc.exists()
        a_qka = shaded_area(well_run / "streamlines.svg")
        a_qrkc = shaded_area(qrkc)
        assert a_qrkc["soft"] >= a_qka["soft"]

    def test_explicit_out_path(self, capsys, well_run, tmp_path):
        target = tmp_path / "fig.svg"
        code, out, _ = _run(capsys, ["render", "--run", str(well_run),
                                     "--kind", "densities", "--out", str(target)])
        assert code == 0 and target.exists()
        assert target.read_text().startswith("<svg ")

    def test_wrong_kind_for_run_is_json_error(self, capsys, well_run):
        code, _, err = _run(capsys, ["render", "--run", str(well_run),
                                     "--kind", "vortex"])
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == "ValueError"

    def test_out_directory_is_made_once_the_figure_is_drawn(self, capsys, well_run, tmp_path):
        # the other subcommands make their --out directory; a refused kind
        # leaves none behind
        refused = tmp_path / "refused" / "f.svg"
        code, _, err = _run(capsys, ["render", "--run", str(well_run),
                                     "--kind", "vortex", "--out", str(refused)])
        assert code == 1 and json.loads(err)["error"] == "ValueError"
        assert not refused.parent.exists()
        target = tmp_path / "new" / "deeper" / "f.svg"
        code, _, _ = _run(capsys, ["render", "--run", str(well_run),
                                   "--kind", "densities", "--out", str(target)])
        assert code == 0 and target.read_text().startswith("<svg ")


class TestRenderFrameTable:
    def test_run_without_table_is_value_error(self, capsys, tmp_path):
        # a whole bundle written before the frame archive existed: a run
        # with frames.npz and its manifest entry taken out
        out = tmp_path / "nf"
        run_scenario(default_config("well_superposition", frames=2, streamlines=2), out)
        (out / "frames.npz").unlink()
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["files"]["frame_table"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        for kind in ("streamlines", "densities", "potential_landscape"):
            with pytest.raises(ValueError, match="frames.npz"):
                rd.render_run(out, rd.RenderSpec(kind=kind), tmp_path / "f.svg")
        code, _, err = _run(capsys, ["render", "--run", str(out), "--kind", "densities"])
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == "ValueError" and "frames.npz" in doc["message"]

    def test_bundle_without_table_entry_is_value_error(self, capsys, well_run, tmp_path):
        # a bundle written before the archive: its manifest lists no frame_table
        old = tmp_path / "old"
        old.mkdir()
        manifest = json.loads((well_run / "manifest.json").read_text())
        del manifest["files"]["frame_table"]
        (old / "manifest.json").write_text(json.dumps(manifest))
        code, _, err = _run(capsys, ["render", "--run", str(old), "--kind", "streamlines"])
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == "ValueError" and "frames.npz" in doc["message"]

    def test_figures_read_the_archive_once(self, tmp_path, monkeypatch):
        out = tmp_path / "w16"
        run_scenario(default_config("well_superposition", frames=16, streamlines=2), out)
        column_reads, table_reads = [], []

        def counting(log, fn):
            def wrapped(path, *args, **kwargs):
                log.append(os.path.basename(str(path)))
                return fn(path, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(rd, "read_columns", counting(column_reads, rd.read_columns))
        monkeypatch.setattr(rd, "read_frame_table",
                            counting(table_reads, rd.read_frame_table))
        figures = rd.default_figures(out)
        assert len(figures) == 3
        assert column_reads == ["streamlines.csv"]
        assert table_reads == ["frames.npz"]

    def test_figures_read_the_manifest_once(self, tmp_path, monkeypatch):
        out = tmp_path / "w4"
        run_scenario(default_config("well_superposition", frames=4, streamlines=2), out)
        reads, load = [], rd._load_manifest

        def counting(run_dir):
            reads.append(run_dir)
            return load(run_dir)

        monkeypatch.setattr(rd, "_load_manifest", counting)
        assert len(rd.default_figures(out)) == 3
        assert reads == [out]


class TestExports:
    def test_fields(self, capsys, tmp_path):
        code, out, _ = _run(capsys, ["fields", "--name", "well_superposition",
                                     "--t", "0.1", "--out", str(tmp_path)])
        assert code == 0
        head = (tmp_path / "decomposition.csv").read_text().splitlines()[0]
        assert head.startswith("x,Q,K_a,K_s,Q_r,K_c")
        head = (tmp_path / "masks.csv").read_text().splitlines()[0]
        assert head == ("x,soft_qka,hard_qka,soft_qrkc,hard_qrkc,"
                        "forbidden_global,forbidden_local,valid")

    def test_classify_prints_areas(self, capsys, tmp_path):
        code, out, _ = _run(capsys, ["classify", "--name", "well_superposition",
                                     "--t", "0.2", "--out", str(tmp_path)])
        assert code == 0
        assert "soft_qka" in out and "soft_qrkc" in out
        assert (tmp_path / "masks.csv").exists()

    def test_eigen(self, capsys, tmp_path):
        code, out, _ = _run(capsys, ["eigen", "--name", "well_superposition",
                                     "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "basis.json").read_text())
        e = doc["energies"]
        assert len(e) == 4 and all(a < b for a, b in zip(e, e[1:]))
        assert "E_0" in out
        assert f"wrote {tmp_path / 'states.npy'}" in out
        back = load_basis(str(tmp_path))
        basis = build_scenario(default_config("well_superposition")).basis
        assert np.array_equal(back.energies, basis.energies)
        assert np.array_equal(back.states, basis.states)
        assert back.grid == basis.grid and back.meta == basis.meta

    def test_evolve(self, capsys, tmp_path):
        code, out, _ = _run(capsys, ["evolve", "--name", "well_superposition",
                                     "--frames", "3", "--out", str(tmp_path)])
        assert code == 0
        frames = sorted(p for p in os.listdir(tmp_path) if p.startswith("psi_"))
        assert frames == ["psi_0000.csv", "psi_0001.csv", "psi_0002.csv"]
        head = (tmp_path / "psi_0000.csv").read_text().splitlines()[0]
        assert head == "x,re,im,mask"

    def test_evolve_follows_the_frame_states(self, capsys, tmp_path):
        # ho_eigenstates: frame 0 is mode_0 and frame 1 is mode_1, both at t = 0
        code, _, _ = _run(capsys, ["evolve", "--name", "ho_eigenstates",
                                   "--out", str(tmp_path)])
        assert code == 0
        b = build_scenario(default_config("ho_eigenstates"))
        assert [b.labels[si] for si in b.frame_states] == ["mode_0", "mode_1"]
        for j, si in enumerate(b.frame_states):
            ref = tmp_path / f"ref_{j}.csv"
            psi = evaluate(b.states[si], float(b.frame_times[j]))
            field_to_csv(b.basis.grid, psi, ref)
            assert (tmp_path / f"psi_{j:04d}.csv").read_bytes() == ref.read_bytes()
        assert (tmp_path / "psi_0000.csv").read_bytes() != (tmp_path / "psi_0001.csv").read_bytes()

    def test_streamlines(self, capsys, tmp_path):
        code, out, _ = _run(capsys, ["streamlines", "--name", "ho_superposition",
                                     "--streamlines", "4", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "streamlines.csv").read_text().splitlines()
        assert lines[0] == "seed_q,t,x"
        assert len({ln.split(",")[0] for ln in lines[1:]}) == 4

    @pytest.mark.parametrize("argv", [
        ["--name", "well_superposition", "--frames", "16"],
        ["--name", "ho_eigenstates"],
    ], ids=["frames_advance", "frames_do_not_advance"])
    def test_streamlines_match_the_bundle(self, capsys, tmp_path, argv):
        # the CLI samples at the bundle's times: the frame times when they
        # advance, the default even steps otherwise
        assert _run(capsys, ["streamlines", *argv, "--out", str(tmp_path / "cli")])[0] == 0
        assert _run(capsys, ["scenario", *argv, "--out", str(tmp_path / "run")])[0] == 0
        cli = (tmp_path / "cli" / "streamlines.csv").read_bytes()
        assert cli == (tmp_path / "run" / "streamlines.csv").read_bytes()

    def test_vortex(self, capsys, tmp_path):
        code, out, _ = _run(capsys, ["vortex", "--out", str(tmp_path)])
        assert code == 0
        head = (tmp_path / "vortex_profile.csv").read_text().splitlines()[0]
        assert head == "r,Q,K_a,speed"
        assert "fit_exponent" in out and "circulation" in out

    def test_vortex_profile_is_the_bundle_profile(self, capsys, tmp_path):
        # the export takes the ledger of one decompose, the bundle frame 0
        # of its frame ledger: a frame's ledger has the same bits alone or
        # in a stack
        assert _run(capsys, ["vortex", "--out", str(tmp_path / "cli")])[0] == 0
        assert _run(capsys, ["scenario", "--name", "vortex_2d",
                             "--out", str(tmp_path / "run")])[0] == 0
        cli = (tmp_path / "cli" / "vortex_profile.csv").read_bytes()
        assert cli == (tmp_path / "run" / "vortex_profile.csv").read_bytes()

    def test_vortex_without_name_applies_flags(self, capsys, monkeypatch, tmp_path):
        seen = []

        def stop(c):
            seen.append(c)
            raise ValueError("stop before the build")

        monkeypatch.setattr(sc, "build_scenario", stop)
        _run(capsys, ["vortex", "--grid-n", "81", "--out", str(tmp_path)])
        assert seen == [default_config("vortex_2d", grid_n=81)]


class TestTune:
    def test_prints_height_and_half(self, capsys, tmp_path):
        code, out, _ = _run(capsys, ["tune", "--tol", "0.01", "--out", str(tmp_path)])
        assert code == 0
        assert "U0* = " in out and "T = " in out
        t_val = float(out.split("T = ")[1].split()[0])
        assert 0.49 <= t_val <= 0.51
        doc = json.loads((tmp_path / "tuning.json").read_text())
        assert doc["U0_star"] > 0 and len(doc["history"]) >= 1

    @pytest.mark.parametrize("argv, tol", [((), 0.01), (("--tol", "0.05"), 0.05)])
    def test_tol_reaches_the_tuner(self, capsys, monkeypatch, argv, tol):
        seen = []

        def fake_tune(c):
            seen.append(c.tol)
            return sc.TuningResult(2437.5, 0.5, 0, (2437.5, 2437.5), ((2437.5, 0.5),))

        monkeypatch.setattr(sc, "tune_beam_splitter", fake_tune)
        code, _, _ = _run(capsys, ["tune", *argv])
        assert code == 0 and seen == [tol]

    def test_zero_tolerance_is_refused_before_probing(self, capsys, monkeypatch):
        def no_probe(*args):
            raise AssertionError("the tuner probed despite a zero tolerance")

        monkeypatch.setattr(sc, "_launch_state", no_probe)
        code, _, err = _run(capsys, ["tune", "--tol", "0"])
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == "ValueError"
        assert "tolerance must be positive" in doc["message"]

    def test_scenario_flag_is_gone(self, capsys):
        # the tuner tunes mzi_1d, the only scenario with a beam splitter
        code, _, err = _run(capsys, ["tune", "--scenario", "mzi_1d"])
        assert code == 2
        assert json.loads(err)["error"] == "usage"


_SCENARIO_FLAGS = {"--name", "--config", "--grid-n", "--frames", "--streamlines", "--eta",
                   "--tol", "--barrier-height", "--barrier-width", "--out"}
# each subcommand's option strings and the required ones among them
_SURFACE = {
    "eigen": (_SCENARIO_FLAGS, {"--out"}),
    "evolve": (_SCENARIO_FLAGS, {"--out"}),
    "fields": (_SCENARIO_FLAGS | {"--t"}, {"--out"}),
    "streamlines": (_SCENARIO_FLAGS, {"--out"}),
    "classify": (_SCENARIO_FLAGS | {"--t"}, {"--out"}),
    "vortex": (_SCENARIO_FLAGS, {"--out"}),
    "tune": ({"--tol", "--out"}, set()),
    "scenario": (_SCENARIO_FLAGS | {"--shading"}, {"--out"}),
    "render": ({"--run", "--kind", "--shading", "--out"}, {"--run", "--kind"}),
}


def test_every_subcommand_keeps_its_flags():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    surface = {}
    for name, p in sub.choices.items():
        flags = [(s, a.required) for a in p._actions if a.dest != "help"
                 for s in a.option_strings]
        surface[name] = ({s for s, _ in flags}, {s for s, req in flags if req})
    assert surface == _SURFACE


class TestErrors:
    def test_unknown_scenario_is_json(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["scenario", "--name", "nope",
                                     "--out", str(tmp_path)])
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == "ValueError" and "nope" in doc["message"]

    def test_runtime_error_is_json(self, capsys, monkeypatch, tmp_path):
        # convergence and step-underflow failures raise RuntimeError
        def fail(c):
            raise RuntimeError("eigensolve did not converge")

        monkeypatch.setattr(sc, "build_scenario", fail)
        code, _, err = _run(capsys, ["scenario", "--name", "well_superposition",
                                     "--out", str(tmp_path)])
        assert code == 1
        assert json.loads(err) == {"error": "RuntimeError",
                                   "message": "eigensolve did not converge"}

    def test_unknown_command_is_usage_json(self, capsys):
        code, _, err = _run(capsys, ["frobnicate"])
        assert code == 2
        assert json.loads(err)["error"] == "usage"

    def test_unknown_flag_is_usage_json(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["scenario", "--name", "well_superposition",
                                     "--out", str(tmp_path), "--purple"])
        assert code == 2
        assert json.loads(err)["error"] == "usage"

    def test_name_config_conflict(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("name = well_superposition\n")
        code, _, err = _run(capsys, ["fields", "--name", "ho_superposition",
                                     "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        assert "conflicts" in json.loads(err)["message"]

    def test_wide_barrier_flag_is_gone(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["scenario", "--name", "mzi_1d", "--wide-barrier",
                                     "--out", str(tmp_path)])
        assert code == 2
        assert json.loads(err)["error"] == "usage"

    def test_none_for_a_needed_value_is_json(self, capsys, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("name = reflection_pulse\npacket_width = none\n")
        code, _, err = _run(capsys, ["scenario", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == "ValueError" and "packet_width" in doc["message"]

    def test_unread_setting_is_json_and_writes_nothing(self, capsys, tmp_path):
        # well_superposition has no barrier: the flag would be recorded but
        # never run, so it is refused before --out is made
        out = tmp_path / "d"
        code, stdout, err = _run(capsys, ["fields", "--name", "well_superposition",
                                          "--barrier-height", "15", "--out", str(out)])
        assert code == 1 and stdout == ""
        doc = json.loads(err)
        assert doc["error"] == "ValueError" and "barrier_height" in doc["message"]
        assert not out.exists()

    def test_loop_start_on_the_vortex_core_is_refused_in_seconds(self, tmp_path):
        # the middle of three seeds on x = 0.5 sits on the core; the loop
        # stepper never finished there, so a child process with a timeout
        # keeps a hang from stopping the suite
        src = os.path.dirname(os.path.dirname(os.path.abspath(sc.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        p = subprocess.run([sys.executable, "-m", "madelung.cli", "scenario", "--name",
                            "vortex_2d", "--streamlines", "3", "--out", str(tmp_path / "v")],
                           env=env, capture_output=True, text=True, timeout=60)
        assert p.returncode == 1
        doc = json.loads(p.stderr)
        assert doc["error"] == "ValueError"
        assert doc["message"].startswith("loop start (0.5, 0.4999")

    def test_missing_name_and_config(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["fields", "--out", str(tmp_path)])
        assert code == 1
        assert "need --name or --config" in json.loads(err)["message"]
