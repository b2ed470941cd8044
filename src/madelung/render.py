"""Static SVG figures from a scenario run directory.

Self-contained vector output with fixed float formatting, so identical
inputs give byte-identical files. Soft-superoscillation regions shade
light gray, hard regions dark gray.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .energy import read_frame_table
from .grids import read_columns

SHADINGS = ("qka", "qrkc")

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


@dataclass(frozen=True)
class RenderSpec:
    """What to draw and how to shade it."""

    kind: str
    shading: str = "qka"

    def __post_init__(self):
        if self.kind not in RENDER_KINDS:
            raise ValueError(f"unknown figure kind {self.kind!r}; choose from {RENDER_KINDS}")
        if self.shading not in SHADINGS:
            raise ValueError(f"unknown shading {self.shading!r}; choose from {SHADINGS}")

    def archive_keys(self) -> tuple:
        """The frame-archive columns the figure draws from: its own, and the
        valid, soft and hard flags of the shading if it is shaded."""
        fig = _FIGURES[self.kind]
        flags = ("valid", f"soft_{self.shading}", f"hard_{self.shading}") if fig.shaded else ()
        return fig.keys + flags


def _minus_zero(v):
    """Where v is written 0.00 though %.2f may write -0.00: v in (-0.005, 0].
    The double nearest -0.005 lies past it and writes -0.01; NaN is never in it."""
    return (v > -0.005) & (v <= 0.0)


def _fmt(v: float) -> str:
    return "%.2f" % (0.0 if _minus_zero(v) else v)


def _cleared(v) -> np.ndarray:
    """v as floats with the values %.2f would write as -0.00 set to 0.0."""
    v = np.asarray(v, dtype=float)
    return np.where(_minus_zero(v), 0.0, v)


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


def _fmts(v) -> list:
    """_fmt of every element of an array, in one pass."""
    return list(map("%.2f".__mod__, _cleared(v).tolist()))


def _points(px, py) -> str:
    """A polyline's points attribute from pixel x and y arrays, written by
    one format call."""
    xy = np.empty(2 * px.size)
    xy[0::2], xy[1::2] = px, py
    return ("%.2f,%.2f " * px.size % tuple(_cleared(xy).tolist()))[:-1]


def _lane_points(px, py) -> list:
    """_points(px, row) for each row of the (lanes, points) stack py; the
    shared x column is formatted once into the template each row fills."""
    template = " ".join(map("%s,%%.2f".__mod__, _fmts(px)))
    return [template % tuple(row) for row in _cleared(py).tolist()]


def _bands(fr: _Frame, x, y_top, y_bot, **flags) -> list:
    """Per lane, one rect from its y_top to its y_bot (pixels) over each run
    of set flags, given as (lanes, points) stacks: class by class in the
    order given, runs in x order.  Runs under 0.05 px wide are left out."""
    ys, hs = _fmts(y_top), _fmts(np.subtract(y_bot, y_top))
    runs = [np.nonzero(np.diff(f, axis=1, prepend=False, append=False)) for f in flags.values()]
    lane = np.concatenate([j[::2] for j, _ in runs])
    cls = np.repeat(np.arange(len(runs)), [j.size // 2 for j, _ in runs])
    edges = np.concatenate([e for _, e in runs])
    left = fr.x(x[edges[::2]])
    width = fr.x(x[edges[1::2] - 1]) - left
    keep = np.flatnonzero(width >= 0.05)
    keep = keep[np.argsort(lane[keep], kind="stable")]  # lane, then class, then x
    names = list(flags)
    rects = [f'<rect class="{names[c]}" x="{a}" y="{ys[j]}" width="{w}" height="{hs[j]}"/>'
             for j, c, a, w in zip(lane[keep].tolist(), cls[keep].tolist(),
                                   _fmts(left[keep]), _fmts(width[keep]))]
    ends = np.cumsum(np.bincount(lane[keep], minlength=len(ys))).tolist()
    return [rects[a:b] for a, b in zip([0] + ends, ends)]


def _load_manifest(run_dir):
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        return json.load(fh)


def _read_archive(run_dir, manifest, keys) -> dict:
    """The named columns of the run's frame archive; nothing is read for no keys."""
    if not keys:
        return {}
    return read_frame_table(os.path.join(run_dir, manifest["files"]["frame_table"]), keys)


def _frame_table(archive: dict, spec: RenderSpec) -> dict:
    """The columns spec's figure draws, taken from the archive columns; a
    shaded figure also gets the shading's soft and hard flags as "soft" and
    "hard", cleared where a point is not valid."""
    table = {k: archive[k] for k in spec.archive_keys()}
    if _FIGURES[spec.kind].shaded:
        valid = table["valid"]
        table["soft"] = table[f"soft_{spec.shading}"] & valid
        table["hard"] = table[f"hard_{spec.shading}"] & valid
    return table


def _render_streamlines(run_dir, manifest, table) -> str:
    lines = read_columns(os.path.join(run_dir, manifest["files"]["streamlines"]))
    x, t = table["x"], table["t"]
    if t[-1] > t[0]:
        # each frame shades out to the midpoints with its neighbours, and
        # the end frames to the ends of the time axis
        fr = _Frame(float(x[0]), float(x[-1]), t[0], t[-1])
        edges = np.concatenate(([t[0]], t[:-1] / 2.0 + t[1:] / 2.0, [t[-1]]))
    else:
        # frames that do not advance (stationary states, a single frame)
        # mark no time: the axis spans the streamline samples, and the
        # frames share it in equal lanes
        samples = lines["t"] if lines["t"].size else t
        fr = _Frame(float(x[0]), float(x[-1]), float(samples.min()), float(samples.max()))
        edges = np.linspace(fr.y0, fr.y1, t.size + 1)
    y = fr.y(edges)
    bands = _bands(fr, x, y[1:], y[:-1], soft=table["soft"], hard=table["hard"])
    body = [rect for rects in bands for rect in rects]

    for q in np.unique(lines["seed_q"]):
        sel = lines["seed_q"] == q
        ts, xs = lines["t"][sel], lines["x"][sel]
        order = np.argsort(ts)
        pts = _points(fr.x(xs[order]), fr.y(ts[order]))
        body.append(f'<polyline class="curve" points="{pts}"/>')
    body.extend(fr.axes("x", "t"))
    return _svg(body)


def _render_densities(run_dir, manifest, table) -> str:
    x, rho = table["x"], table["rho"]
    rho_max = float(rho.max())
    lanes = np.arange(len(rho), dtype=float)
    fr = _Frame(float(x[0]), float(x[-1]), 0.0, float(len(rho)))
    base = fr.y(lanes)
    bands = _bands(fr, x, fr.y(lanes + 0.92), base, soft=table["soft"], hard=table["hard"])
    curves = _lane_points(fr.x(x[::4]), fr.y(rho[:, ::4] / rho_max * 0.92 + lanes[:, None]))
    label_x = _fmt(fr.px1 + 4)
    body = []
    for rects, pts, y, t in zip(bands, curves, _fmts(base - 2), _fmts(table["t"])):
        body += rects
        body.append(f'<polyline class="curve" points="{pts}"/>')
        body.append(f'<text x="{label_x}" y="{y}">t={t}</text>')
    body.extend(fr.axes("x", "frame"))
    return _svg(body)


def _render_potential(run_dir, manifest, table) -> str:
    x, U = table["x"], table["U"][0]
    e_plus = float(manifest["derived"]["band_limits"][0])
    levels = [e for e in manifest["derived"]["energies"] if e <= e_plus * 1.05]
    u_cap = max(e_plus * 1.6, float(np.percentile(U, 95)))
    u_lo = min(0.0, float(U.min()))
    fr = _Frame(float(x[0]), float(x[-1]), u_lo, u_cap)
    # classically forbidden band at the band-limit energy
    body = _bands(fr, x, [fr.py1], [fr.py0], hard=(U > e_plus)[None])[0]
    clip = np.minimum(U, u_cap * 1.02)
    pts = _points(fr.x(x[::2]), fr.y(clip[::2]))
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


def _render_vortex(run_dir, manifest, table) -> str:
    cols = read_columns(os.path.join(run_dir, manifest["files"]["vortex_profile"]))
    lr, lk = np.log10(cols["r"]), np.log10(cols["K_a"])
    fr = _Frame(float(lr.min()), float(lr.max()),
                float(lk.min()) - 0.1, float(lk.max()) + 0.1)
    v = manifest["derived"]["vortex"]
    z, p = v["fit_Z"], v["fit_exponent"]
    fit = math.log10(z / 2.0) + p * lr
    px = fr.x(lr)
    body = [f'<polyline class="fit" points="{_points(px, fr.y(fit))}"/>']
    body += [f'<circle class="pt" cx="{a}" cy="{b}" r="2.5"/>'
             for a, b in zip(_fmts(px), _fmts(fr.y(lk)))]
    body.append(f'<text x="{_fmt(fr.px0 + 8)}" y="{_fmt(fr.py1 + 14)}">'
                f'slope={_fmt(p)} Z={_fmt(z)}</text>')
    body.extend(fr.axes("log10 r", "log10 K_a"))
    return _svg(body)


class _Figure(NamedTuple):
    draw: Callable  # (run_dir, manifest, its frame table) -> SVG text
    needs: tuple  # the run files it reads, keys of the manifest's files
    refusal: str  # the refusal of a run that does not list them
    keys: tuple  # the frame-archive columns it draws
    shaded: bool  # whether it also draws the soft and hard flags


# a bundle without the frame archive (written before it existed) gets the
# same refusal from every kind that draws from it
_FIGURES = {
    "streamlines": _Figure(_render_streamlines, ("streamlines", "frame_table"),
                           "run has no streamline table; this kind needs a 1D run",
                           ("t", "x"), True),
    "densities": _Figure(_render_densities, ("streamlines", "frame_table"),
                         "run has no 1D frames; this kind needs a 1D run",
                         ("t", "x", "rho"), True),
    "potential_landscape": _Figure(_render_potential, ("streamlines", "frame_table"),
                                   "potential landscape needs a 1D run", ("x", "U"), False),
    "vortex": _Figure(_render_vortex, ("vortex_profile",),
                      "run has no vortex profile; this kind needs the 2D run", (), False),
}
RENDER_KINDS = tuple(_FIGURES)


def render_run(run_dir, spec: RenderSpec, out_path) -> str:
    """Draw one figure from a completed run directory; returns out_path,
    whose directory is made once the figure is drawn.  A run that lists
    not every file the figure reads is refused with a ValueError."""
    manifest, fig = _load_manifest(run_dir), _FIGURES[spec.kind]
    for key in fig.needs:
        if key not in manifest["files"]:
            raise ValueError(f"{run_dir} has no frame table frames.npz; re-run the "
                             "scenario to write one" if key == "frame_table" else fig.refusal)
    archive = _read_archive(run_dir, manifest, spec.archive_keys())
    return _render(run_dir, manifest, spec, archive, out_path)


def _render(run_dir, manifest, spec: RenderSpec, archive: dict, out_path) -> str:
    text = _FIGURES[spec.kind].draw(run_dir, manifest, _frame_table(archive, spec))
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w") as fh:
        fh.write(text)
    return str(out_path)


def default_figures(run_dir, shading: str = "qka") -> list:
    """The stock figure set for a run, written next to the manifest: every
    kind whose files the run lists.  The manifest is read once, and so is the
    frame archive, for every column the set draws, when a figure draws one."""
    manifest = _load_manifest(run_dir)
    specs = [RenderSpec(kind=kind, shading=shading) for kind, fig in _FIGURES.items()
             if all(k in manifest["files"] for k in fig.needs)]
    keys = tuple(dict.fromkeys(k for spec in specs for k in spec.archive_keys()))
    archive = _read_archive(run_dir, manifest, keys)
    return [_render(run_dir, manifest, spec, archive, os.path.join(run_dir, f"{spec.kind}.svg"))
            for spec in specs]
