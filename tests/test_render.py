"""The renderer against the one it replaced, and figures that stay in their box.

The drawing code as it stood before the single points writer, band writer
and input table is kept below verbatim as a frozen oracle (its entry point
renamed ``oracle_render_run``; its end bands since clipped to the time
axis, as the renderer's are, and its refusal of a run without the frame
archive worded as the renderer's is).  Every figure kind in both shadings
must give the same SVG text, or the same exception type and message, on
runs whose frames advance and on the 2D run.  Only the streamlines figure of a
run whose frames do not advance may differ; it is checked on its own.
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from madelung import energy
from madelung import render as rd
from madelung.energy import read_frame_table
from madelung.grids import read_columns
from madelung.render import RenderSpec
from madelung.scenarios import default_config, run_scenario

# ---------------------------------------------------------------- oracle

# figure size in pixels; every figure spans its data ranges
WIDTH, HEIGHT = 720, 520

SOFT_GRAY = "#d4d4d4"
HARD_GRAY = "#8a8a8a"

_STYLE = (
    "rect.soft{fill:%s;stroke:none}rect.hard{fill:%s;stroke:none}"
    "polyline{fill:none;stroke:#1a1a1a;stroke-width:1.2}"
    "polyline.curve{stroke:#1a1a1a}polyline.fit{stroke:#666666;stroke-dasharray:5 3}"
    "line.axis{stroke:#333333;stroke-width:1}line.level{stroke:#777777;stroke-dasharray:4 3}"
    "circle.pt{fill:#1a1a1a;stroke:none}"
    "text{font-family:monospace;font-size:11px;fill:#333333}"
) % (SOFT_GRAY, HARD_GRAY)


def _fmt(v: float) -> str:
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


def _svg(body: list) -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f"<style>{_STYLE}</style>",
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


class _Frame:
    """Maps data coordinates onto the pixel box (y grows upward in data)."""

    PAD = 42

    def __init__(self, x0, x1, y0, y1):
        if x1 <= x0:
            x0, x1 = x0 - 0.5, x0 + 0.5
        if y1 <= y0:
            y0, y1 = y0 - 0.5, y0 + 0.5
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.px0, self.px1 = self.PAD, WIDTH - self.PAD
        self.py0, self.py1 = HEIGHT - self.PAD, self.PAD

    def x(self, v):
        return self.px0 + (v - self.x0) / (self.x1 - self.x0) * (self.px1 - self.px0)

    def y(self, v):
        return self.py0 + (v - self.y0) / (self.y1 - self.y0) * (self.py1 - self.py0)

    def axes(self, xlabel: str, ylabel: str) -> list:
        out = [
            f'<line class="axis" x1="{_fmt(self.px0)}" y1="{_fmt(self.py0)}" '
            f'x2="{_fmt(self.px1)}" y2="{_fmt(self.py0)}"/>',
            f'<line class="axis" x1="{_fmt(self.px0)}" y1="{_fmt(self.py0)}" '
            f'x2="{_fmt(self.px0)}" y2="{_fmt(self.py1)}"/>',
            f'<text x="{_fmt(self.px1 - 4)}" y="{_fmt(self.py0 + 26)}" '
            f'text-anchor="end">{xlabel}</text>',
            f'<text x="{_fmt(self.px0 - 30)}" y="{_fmt(self.py1 - 8)}">{ylabel}</text>',
        ]
        for v, label in ((self.x0, _fmt(self.x0)), (self.x1, _fmt(self.x1))):
            out.append(f'<text x="{_fmt(self.x(v))}" y="{_fmt(self.py0 + 14)}" '
                       f'text-anchor="middle">{label}</text>')
        for v in (self.y0, self.y1):
            out.append(f'<text x="{_fmt(self.px0 - 4)}" y="{_fmt(self.y(v) + 4)}" '
                       f'text-anchor="end">{_fmt(v)}</text>')
        return out


def _runs_of(flags: np.ndarray):
    idx = np.where(flags)[0]
    if idx.size == 0:
        return []
    groups = np.split(idx, np.where(np.diff(idx) > 1)[0] + 1)
    return [(g[0], g[-1]) for g in groups]


def _mask_rects(fr: _Frame, x, flags, y_top, y_bot, cls: str) -> list:
    out = []
    for a, b in _runs_of(flags):
        x_left, x_right = fr.x(x[a]), fr.x(x[b])
        if x_right - x_left < 0.05:
            continue
        out.append(
            f'<rect class="{cls}" x="{_fmt(x_left)}" y="{_fmt(y_top)}" '
            f'width="{_fmt(x_right - x_left)}" height="{_fmt(y_bot - y_top)}"/>'
        )
    return out


def _load_manifest(run_dir):
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        return json.load(fh)


def _frame_table(run_dir, manifest, keys) -> dict:
    """The named columns of the run's frame archive."""
    name = manifest["files"].get("frame_table")
    if name is None:
        raise ValueError(f"{run_dir} has no frame table frames.npz; re-run the "
                         "scenario to write one")
    return read_frame_table(os.path.join(run_dir, name), keys)


def _frame_masks(run_dir, manifest, shading, extra=()):
    """Per frame (t, x, soft flags, hard flags) honoring the valid flags,
    and the archive columns read for them plus the extra ones."""
    soft, hard = f"soft_{shading}", f"hard_{shading}"
    table = _frame_table(run_dir, manifest, ("t", "x", "valid", soft, hard) + extra)
    frames = [(float(t), table["x"], s & v, h & v) for t, s, h, v in
              zip(table["t"], table[soft], table[hard], table["valid"])]
    return frames, table


def _shading_bands(fr: _Frame, frames, band_edges) -> list:
    body = []
    for (t, x, soft, hard), (lo, hi) in zip(frames, band_edges):
        y_top, y_bot = fr.y(hi), fr.y(lo)
        body.extend(_mask_rects(fr, x, soft, y_top, y_bot, "soft"))
        body.extend(_mask_rects(fr, x, hard, y_top, y_bot, "hard"))
    return body


def _render_streamlines(run_dir, manifest, spec: RenderSpec) -> str:
    if "streamlines" not in manifest["files"]:
        raise ValueError("run has no streamline table; this kind needs a 1D run")
    frames, _ = _frame_masks(run_dir, manifest, spec.shading)
    lines = read_columns(os.path.join(run_dir, manifest["files"]["streamlines"]))
    x_all = frames[0][1]
    times = [t for t, *_ in frames]
    t1 = times[-1] if len(times) > 1 else times[0] + 1.0
    fr = _Frame(float(x_all[0]), float(x_all[-1]), times[0], t1)

    mids = list(times)
    edges = []
    for j, t in enumerate(mids):
        lo = mids[j - 1] / 2.0 + t / 2.0 if j > 0 else t if len(mids) > 1 else t - 0.5
        hi = mids[j + 1] / 2.0 + t / 2.0 if j < len(mids) - 1 else t if len(mids) > 1 else t + 0.5
        edges.append((lo, hi))
    body = _shading_bands(fr, frames, edges)

    seeds = sorted(set(lines["seed_q"]))
    for q in seeds:
        sel = lines["seed_q"] == q
        ts, xs = lines["t"][sel], lines["x"][sel]
        order = np.argsort(ts)
        pts = " ".join(f"{_fmt(fr.x(xi))},{_fmt(fr.y(ti))}"
                       for ti, xi in zip(ts[order], xs[order]))
        body.append(f'<polyline class="curve" points="{pts}"/>')
    body.extend(fr.axes("x", "t"))
    return _svg(body)


def _render_densities(run_dir, manifest, spec: RenderSpec) -> str:
    if "streamlines" not in manifest["files"]:
        raise ValueError("run has no 1D frames; this kind needs a 1D run")
    frames, table = _frame_masks(run_dir, manifest, spec.shading, ("rho",))
    rhos = table["rho"]
    rho_max = float(rhos.max())
    x_all = frames[0][1]
    n = len(frames)
    fr = _Frame(float(x_all[0]), float(x_all[-1]), 0.0, float(n))
    body = []
    for j, ((t, x, soft, hard), rho) in enumerate(zip(frames, rhos)):
        base, top = float(j), float(j + 0.92)
        body.extend(_mask_rects(fr, x, soft, fr.y(top), fr.y(base), "soft"))
        body.extend(_mask_rects(fr, x, hard, fr.y(top), fr.y(base), "hard"))
        lane = rho / rho_max * 0.92 + j
        pts = " ".join(f"{_fmt(fr.x(xi))},{_fmt(fr.y(vi))}"
                       for xi, vi in zip(x[::4], lane[::4]))
        body.append(f'<polyline class="curve" points="{pts}"/>')
        body.append(f'<text x="{_fmt(fr.px1 + 4)}" y="{_fmt(fr.y(base) - 2)}">'
                    f't={_fmt(t)}</text>')
    body.extend(fr.axes("x", "frame"))
    return _svg(body)


def _render_potential(run_dir, manifest, spec: RenderSpec) -> str:
    if "streamlines" not in manifest["files"]:
        raise ValueError("potential landscape needs a 1D run")
    table = _frame_table(run_dir, manifest, ("x", "U"))
    x, U = table["x"], table["U"][0]
    e_plus = float(manifest["derived"]["band_limits"][0])
    levels = [e for e in manifest["derived"]["energies"] if e <= e_plus * 1.05]
    u_cap = max(e_plus * 1.6, float(np.percentile(U, 95)))
    u_lo = min(0.0, float(U.min()))
    fr = _Frame(float(x[0]), float(x[-1]), u_lo, u_cap)
    body = []
    # classically forbidden band at the band-limit energy
    body.extend(_mask_rects(fr, x, U > e_plus, fr.py1, fr.py0, "hard"))
    clip = np.minimum(U, u_cap * 1.02)
    pts = " ".join(f"{_fmt(fr.x(xi))},{_fmt(fr.y(vi))}" for xi, vi in zip(x[::2], clip[::2]))
    body.append(f'<polyline class="curve" points="{pts}"/>')
    for e in levels:
        body.append(f'<line class="level" x1="{_fmt(fr.px0)}" y1="{_fmt(fr.y(e))}" '
                    f'x2="{_fmt(fr.px1)}" y2="{_fmt(fr.y(e))}"/>')
    body.append(f'<line class="axis" x1="{_fmt(fr.px0)}" y1="{_fmt(fr.y(e_plus))}" '
                f'x2="{_fmt(fr.px1)}" y2="{_fmt(fr.y(e_plus))}"/>')
    body.append(f'<text x="{_fmt(fr.px1 - 4)}" y="{_fmt(fr.y(e_plus) - 4)}" '
                f'text-anchor="end">E+={_fmt(e_plus)}</text>')
    body.extend(fr.axes("x", "U"))
    return _svg(body)


def _render_vortex(run_dir, manifest, spec: RenderSpec) -> str:
    path = os.path.join(run_dir, manifest["files"].get("vortex_profile", ""))
    if not manifest["files"].get("vortex_profile") or not os.path.exists(path):
        raise ValueError("run has no vortex profile; this kind needs the 2D run")
    cols = read_columns(path)
    r, ka = cols["r"], cols["K_a"]
    lr, lk = np.log10(r), np.log10(ka)
    fr = _Frame(float(lr.min()), float(lr.max()),
                float(lk.min()) - 0.1, float(lk.max()) + 0.1)
    v = manifest["derived"]["vortex"]
    z, p = v["fit_Z"], v["fit_exponent"]
    body = []
    fit = math.log10(z / 2.0) + p * lr
    pts = " ".join(f"{_fmt(fr.x(a))},{_fmt(fr.y(b))}" for a, b in zip(lr, fit))
    body.append(f'<polyline class="fit" points="{pts}"/>')
    for a, b in zip(lr, lk):
        body.append(f'<circle class="pt" cx="{_fmt(fr.x(a))}" cy="{_fmt(fr.y(b))}" r="2.5"/>')
    body.append(f'<text x="{_fmt(fr.px0 + 8)}" y="{_fmt(fr.py1 + 14)}">'
                f'slope={_fmt(p)} Z={_fmt(z)}</text>')
    body.extend(fr.axes("log10 r", "log10 K_a"))
    return _svg(body)


_RENDERERS = {
    "streamlines": _render_streamlines,
    "densities": _render_densities,
    "potential_landscape": _render_potential,
    "vortex": _render_vortex,
}


def oracle_render_run(run_dir, spec: RenderSpec, out_path) -> str:
    """Draw one figure from a completed run directory; returns out_path."""
    manifest = _load_manifest(run_dir)
    text = _RENDERERS[spec.kind](run_dir, manifest, spec)
    with open(out_path, "w") as fh:
        fh.write(text)
    return str(out_path)


# ----------------------------------------------------------------- tests

# (name, config overrides): runs whose frames advance, the 2D run and, last,
# a bundle written before the frame archive existed (a run with frames.npz
# and its manifest entry taken out)
RUNS = (
    ("well_superposition", {"frames": 16}),
    ("reflection_pulse", {"frames": 8}),
    ("ho_superposition", {}),
    ("quartic_superposition", {"frames": 16}),
    ("well_barrier_superposition", {}),
    ("mzi_1d", {"barrier_height": 2437.5, "frames": 4, "streamlines": 3}),
    ("vortex_2d", {}),
    ("well_superposition", {"frames": 2, "streamlines": 2}),
)
WITHOUT_TABLE = len(RUNS) - 1


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("render")
    out = {}
    for i, (name, kw) in enumerate(RUNS):
        out[i] = root / f"{i}_{name}"
        run_scenario(default_config(name, **kw), out[i])
    manifest = _load_manifest(out[WITHOUT_TABLE])
    os.remove(os.path.join(out[WITHOUT_TABLE], manifest["files"].pop("frame_table")))
    with open(os.path.join(out[WITHOUT_TABLE], "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    return out


def _outcome(render, run_dir, spec, path):
    try:
        render(run_dir, spec, path)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    with open(path) as fh:
        return fh.read()


@pytest.mark.parametrize("shading", rd.SHADINGS)
@pytest.mark.parametrize("kind", rd.RENDER_KINDS)
@pytest.mark.parametrize("i", range(len(RUNS)), ids=[f"{n}-{i}" for i, (n, _) in enumerate(RUNS)])
def test_matches_the_frozen_renderer(runs, tmp_path, i, kind, shading):
    spec = RenderSpec(kind=kind, shading=shading)
    new = _outcome(rd.render_run, runs[i], spec, tmp_path / "new.svg")
    old = _outcome(oracle_render_run, runs[i], spec, tmp_path / "old.svg")
    assert new == old


def test_default_figures_are_the_kinds_the_frozen_renderer_draws(runs, tmp_path):
    for run in runs.values():
        drawn = {}
        for kind in rd.RENDER_KINDS:
            out = _outcome(oracle_render_run, run, RenderSpec(kind), tmp_path / "old.svg")
            if isinstance(out, str):
                drawn[f"{kind}.svg"] = out
        figures = rd.default_figures(run)
        assert [os.path.basename(p) for p in figures] == list(drawn)
        assert [open(p).read() for p in figures] == list(drawn.values())


def test_figures_read_only_stored_keys(runs, monkeypatch):
    # the archive stores what the figures read: drawing derives no column,
    # and no derivable float column is stored
    derived, derive = [], energy._derive

    def counting(*args):
        derived.append(args)
        return derive(*args)

    monkeypatch.setattr(energy, "_derive", counting)
    for i in (0, 6):
        with np.load(runs[i] / "frames.npz", allow_pickle=False) as z:
            axes = ("x",) if "y" not in z.files else ("x", "y")
            assert z.files == ["t", *axes, "E_plus", "U", "rho", "q", "K_a", "k_s", "q_r",
                               "e_p", "soft_qka", "hard_qka", "soft_qrkc", "hard_qrkc",
                               "forbidden_global", "forbidden_local", "valid"]
        assert rd.default_figures(runs[i])
    assert derived == []


_NUM = r"(-?[0-9.]+)"


def _points_inside(text):
    """The polyline points of a figure, after checking that they and every
    rect lie in the plot box."""
    lo_x, hi_x = rd._Frame.PAD, rd.WIDTH - rd._Frame.PAD
    lo_y, hi_y = rd._Frame.PAD, rd.HEIGHT - rd._Frame.PAD
    points = [tuple(map(float, p.split(",")))
              for pts in re.findall(r'<polyline[^>]*points="([^"]*)"', text)
              for p in pts.split()]
    rects = [tuple(map(float, r)) for r in re.findall(
        rf'<rect class="(?:soft|hard)" x="{_NUM}" y="{_NUM}" width="{_NUM}" height="{_NUM}"/>', text)]
    assert points and rects
    for x, y in points:
        assert lo_x <= x <= hi_x and lo_y <= y <= hi_y, (x, y)
    for x, y, w, h in rects:
        assert lo_x <= x and x + w <= hi_x + 0.01 and w > 0.0
        assert lo_y <= y and y + h <= hi_y + 0.01 and h > 0.0
    return points


@pytest.mark.parametrize("name, kw", [
    ("ho_eigenstates", {}),
    ("well_superposition", {"frames": 1}),
], ids=["ho_eigenstates", "one_frame"])
@pytest.mark.parametrize("shading", rd.SHADINGS)
def test_streamlines_stay_in_the_box_when_frames_do_not_advance(tmp_path, name, kw, shading):
    run_scenario(default_config(name, **kw), tmp_path / "run")
    out = rd.render_run(tmp_path / "run", RenderSpec("streamlines", shading), tmp_path / "s.svg")
    points = _points_inside(open(out).read())
    # the time axis spans the streamline samples: the curves run from the
    # bottom edge of the box to its top edge
    ys = {y for _, y in points}
    assert min(ys) == rd._Frame.PAD and max(ys) == rd.HEIGHT - rd._Frame.PAD


@pytest.mark.parametrize("shading", rd.SHADINGS)
def test_streamlines_end_bands_stay_in_the_box_when_frames_advance(runs, tmp_path, shading):
    # well_superposition --frames 16: the first and last bands end at the
    # first and last frame time, the edges of the time axis
    assert RUNS[0] == ("well_superposition", {"frames": 16})
    out = rd.render_run(runs[0], RenderSpec("streamlines", shading), tmp_path / "s.svg")
    _points_inside(open(out).read())



# ------------------------------------------------- writers, value by value

# The writers as they stood before the whole-figure passes: one value, one
# point and one lane at a time (_fmt is the frozen one above).


def _fmts_oracle(v) -> list:
    return [_fmt(a) for a in v.tolist()]


def _points_oracle(px: list, py: list) -> str:
    return " ".join(map("{},{}".format, px, py))


def _band_oracle(fr, x, y_top, y_bot, **flags) -> list:
    y = f'y="{_fmt(y_top)}"'
    height = f'height="{_fmt(y_bot - y_top)}"'
    out = []
    for cls, f in flags.items():
        edges = np.flatnonzero(np.diff(f, prepend=False, append=False))
        left = fr.x(x[edges[::2]])
        width = fr.x(x[edges[1::2] - 1]) - left
        keep = width >= 0.05
        out += [f'<rect class="{cls}" x="{a}" {y} width="{w}" {height}/>'
                for a, w in zip(_fmts_oracle(left[keep]), _fmts_oracle(width[keep]))]
    return out


_EDGE_VALUES = (-0.0, 0.0, -0.005, float(np.nextafter(-0.005, 0.0)), 0.004999, -0.004999,
                math.nan, math.inf, -math.inf, 1e17, -1e17)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-800.0, 800.0) | st.sampled_from(_EDGE_VALUES) | st.floats(),
                max_size=40))
@example(list(_EDGE_VALUES))
def test_fmts_writes_each_value_as_the_oracle_does(values):
    v = np.array(values, dtype=float)
    want = _fmts_oracle(v)
    assert rd._fmts(v) == want
    assert [rd._fmt(a) for a in values] == want
    assert [rd._fmt(a) for a in v] == want  # NumPy scalars too


def _flag_stacks(rng, lanes, n):
    """Soft and hard (lanes, n) stacks: random runs, runs touching both ends,
    an empty lane and a full lane."""
    soft = rng.random((lanes, n)) < rng.uniform(0.1, 0.9)
    hard = rng.random((lanes, n)) < 0.3
    soft[0, :2] = soft[-1, -2:] = True
    soft[rng.integers(lanes)] = False
    hard[rng.integers(lanes)] = True
    return soft, hard


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("lanes", [1, 2, 9])
def test_bands_equal_the_lane_by_lane_writer(seed, lanes):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 300))
    # a fine lattice puts many single-point runs (width 0) and runs under
    # 0.05 px wide next to wide ones
    x = np.sort(rng.uniform(-1.0, 1.0, n)) if seed % 2 else np.linspace(-1.0, 1.0, n)
    fr = rd._Frame(float(x[0]), float(x[-1]), 0.0, float(lanes))
    y_top = fr.y(np.arange(lanes) + 0.92)
    y_bot = fr.y(np.arange(lanes, dtype=float))
    soft, hard = _flag_stacks(rng, lanes, n)
    want = [_band_oracle(fr, x, y_top[j], y_bot[j], soft=soft[j], hard=hard[j])
            for j in range(lanes)]
    assert rd._bands(fr, x, y_top, y_bot, soft=soft, hard=hard) == want
    assert rd._bands(fr, x, y_top, y_bot, hard=hard) == [
        _band_oracle(fr, x, y_top[j], y_bot[j], hard=hard[j]) for j in range(lanes)]


def test_bands_leave_out_runs_under_a_twentieth_of_a_pixel():
    x = np.array([0.0, 1e-5, 2e-5, 0.5, 1.0])
    fr = rd._Frame(0.0, 1.0, 0.0, 1.0)
    flags = np.array([[True, True, False, True, True], [False] * 5, [True] * 5])
    got = rd._bands(fr, x, np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]), hard=flags)
    assert got == [_band_oracle(fr, x, a, b, hard=f) for a, b, f in
                   zip((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), flags)]
    assert [len(rects) for rects in got] == [1, 0, 1]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 60), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_points_and_the_shared_x_template_equal_the_pairwise_writer(n, lanes, seed):
    rng = np.random.default_rng(seed)
    px = rng.uniform(-1.0, 721.0, n)
    py = rng.uniform(-1.0, 521.0, (lanes, n))
    px[::7], py[:, ::5] = -0.0, -0.004  # values written 0.00
    want = [_points_oracle(_fmts_oracle(px), _fmts_oracle(row)) for row in py]
    assert [rd._points(px, row) for row in py] == want
    assert rd._lane_points(px, py) == want
