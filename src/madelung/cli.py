"""Command-line front end: scenarios, field exports, tuning, SVG figures.

Thin shell over the library modules; every subcommand maps onto public
functions, prints one line per artifact written, exits 0 on success and
nonzero with a JSON error object on stderr otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import render as rd
from . import scenarios as sc
from .energy import decompose, decomposition_to_csv, mask_area, masks_to_csv
from .flow import streamline_bundle, streamlines_to_csv, vortex_profile_to_csv
from .grids import field_to_csv, write_json
from .spectral import save_basis
from .states import evaluate


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _emit_error(kind: str, message: str):
    print(json.dumps({"error": kind, "message": str(message)}), file=sys.stderr)


# ScenarioConfig fields that a flag of the same name replaces
_OVERRIDES = ("grid_n", "frames", "streamlines", "eta", "tol", "barrier_height",
              "barrier_width")


def _with_overrides(c: sc.ScenarioConfig, args) -> sc.ScenarioConfig:
    given = {k: getattr(args, k, None) for k in _OVERRIDES}
    return dataclasses.replace(c, **{k: v for k, v in given.items() if v is not None})


def _config_from_args(args) -> sc.ScenarioConfig:
    if getattr(args, "config", None):
        c = sc.load_config(args.config)
        if getattr(args, "name", None) and args.name != c.name:
            raise ValueError(f"--name {args.name} conflicts with config name {c.name}")
    else:
        if not getattr(args, "name", None):
            raise ValueError("need --name or --config")
        c = sc.default_config(args.name)
    return _with_overrides(c, args)


def _say(path):
    print(f"wrote {path}")


def _cmd_eigen(args) -> int:
    c = _config_from_args(args)
    b = sc.build_scenario(c)
    if b.basis.grid.ndim != 1:
        raise ValueError("eigen export covers 1D scenarios")
    save_basis(b.basis, args.out)
    _say(os.path.join(args.out, "basis.json"))
    _say(os.path.join(args.out, "states.npy"))
    for i, e in enumerate(b.basis.energies):
        print(f"E_{i} = {e:.12g}")
    return 0


def _cmd_evolve(args) -> int:
    c = _config_from_args(args)
    b = sc.build_scenario(c)
    os.makedirs(args.out, exist_ok=True)
    for j, (t, si) in enumerate(zip(b.frame_times, b.frame_states)):
        path = os.path.join(args.out, f"psi_{j:04d}.csv")
        field_to_csv(b.basis.grid, evaluate(b.states[si], float(t)), path)
        _say(path)
    return 0


def _cmd_fields(args) -> int:
    c = _config_from_args(args)
    b = sc.build_scenario(c)
    os.makedirs(args.out, exist_ok=True)
    d = decompose(b.states[0], args.t)
    p1 = os.path.join(args.out, "decomposition.csv")
    decomposition_to_csv(d, p1)
    _say(p1)
    p2 = os.path.join(args.out, "masks.csv")
    masks_to_csv(d, p2)
    _say(p2)
    return 0


def _cmd_streamlines(args) -> int:
    c = _config_from_args(args)
    b = sc.build_scenario(c)
    os.makedirs(args.out, exist_ok=True)
    lines = streamline_bundle(b.states[0], c.streamlines, b.span, t_eval=sc.streamline_times(b))
    path = os.path.join(args.out, "streamlines.csv")
    streamlines_to_csv(lines, path)
    _say(path)
    return 0


def _cmd_classify(args) -> int:
    c = _config_from_args(args)
    b = sc.build_scenario(c)
    os.makedirs(args.out, exist_ok=True)
    d = decompose(b.states[0], args.t)
    path = os.path.join(args.out, "masks.csv")
    masks_to_csv(d, path)
    _say(path)
    print(f"area soft_qka = {mask_area(d.grid, d.soft_qka):.6g}  "
          f"soft_qrkc = {mask_area(d.grid, d.soft_qrkc):.6g}  "
          f"hard_qka = {mask_area(d.grid, d.hard_qka):.6g}  "
          f"hard_qrkc = {mask_area(d.grid, d.hard_qrkc):.6g}")
    return 0


def _cmd_vortex(args) -> int:
    if args.name or args.config:
        c = _config_from_args(args)
    else:
        c = _with_overrides(sc.default_config("vortex_2d"), args)
    if c.name != "vortex_2d":
        raise ValueError("vortex analysis needs the vortex_2d scenario")
    b = sc.build_scenario(c)
    os.makedirs(args.out, exist_ok=True)
    prof, v = sc.vortex_record(b.states[0], decompose(b.states[0], 0.0))
    path = os.path.join(args.out, "vortex_profile.csv")
    vortex_profile_to_csv(prof, path)
    _say(path)
    print(f"fit_exponent = {v['fit_exponent']:.4f}  fit_Z = {v['fit_Z']:.4f}  "
          f"circulation = {v['circulation_along_swirl']:.6f}")
    return 0


def _cmd_tune(args) -> int:
    r = sc.tune_beam_splitter(_with_overrides(sc.default_config("mzi_1d"), args))
    print(f"U0* = {r.U0_star:.6g}  T = {r.transmission:.6f}  "
          f"probes = {len(r.history)}  bisections = {r.iterations}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "tuning.json")
        write_json(path, sc.tuning_record(r))
        _say(path)
    return 0


def _cmd_scenario(args) -> int:
    c = _config_from_args(args)
    manifest = sc.run_scenario(c, args.out)
    _say(os.path.join(args.out, "manifest.json"))
    for key in ("frame_table", "streamlines", "loops", "nodes", "vortex_profile"):
        if key in manifest["files"]:
            _say(os.path.join(args.out, manifest["files"][key]))
    for fig in rd.default_figures(args.out, shading=args.shading or "qka"):
        _say(fig)
    return 0


def _cmd_render(args) -> int:
    spec = rd.RenderSpec(kind=args.kind, shading=args.shading or "qka")
    out = args.out or os.path.join(args.run, f"{args.kind}_{spec.shading}.svg")
    rd.render_run(args.run, spec, out)
    _say(out)
    return 0


def _add_common(p, t_flag=False):
    p.add_argument("--name", help="scenario name")
    p.add_argument("--config", help="key = value config file")
    for k in _OVERRIDES:
        p.add_argument("--" + k.replace("_", "-"), dest=k, type=sc.FIELD_TYPES[k])
    if t_flag:
        p.add_argument("--t", type=float, default=0.0, help="evaluation time")


def build_parser() -> _Parser:
    ap = _Parser(prog="madelung", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigen", help="solve and export an eigenbasis")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_eigen)

    p = sub.add_parser("evolve", help="wavefunction frames over the scenario span")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_evolve)

    p = sub.add_parser("fields", help="energy ledger and masks at one time")
    _add_common(p, t_flag=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_fields)

    p = sub.add_parser("streamlines", help="fluid streamlines over the scenario span")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_streamlines)

    p = sub.add_parser("classify", help="superoscillation masks and areas at one time")
    _add_common(p, t_flag=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("vortex", help="vortex profile and circulation")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_vortex)

    p = sub.add_parser("tune", help="tune the mzi_1d splitter barrier height to 50/50")
    p.add_argument("--tol", type=sc.FIELD_TYPES["tol"])
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser("scenario", help="full deterministic run bundle plus figures")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--shading", choices=rd.SHADINGS)
    p.set_defaults(fn=_cmd_scenario)

    p = sub.add_parser("render", help="draw one SVG figure from a run directory")
    p.add_argument("--run", required=True, help="completed run directory")
    p.add_argument("--kind", required=True, choices=rd.RENDER_KINDS)
    p.add_argument("--shading", choices=rd.SHADINGS)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_render)

    return ap


def run_cli(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        _emit_error("usage", str(exc))
        return 2
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 1


def main():  # console entry point
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
