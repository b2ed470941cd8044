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
    if args.config:
        c = sc.load_config(args.config)
        if args.name and args.name != c.name:
            raise ValueError(f"--name {args.name} conflicts with config name {c.name}")
    else:
        if not args.name:
            raise ValueError("need --name or --config")
        c = sc.default_config(args.name)
    return _with_overrides(c, args)


def _say(path):
    print(f"wrote {path}")


def _build(args, needs: str | None = None):
    """The scenario the flags give, built (it must be `needs`, when
    given); --out is made only once the build succeeds."""
    c = _config_from_args(args)
    if needs and c.name != needs:
        raise ValueError(f"{args.command} analysis needs the {needs} scenario")
    b = sc.build_scenario(c)
    os.makedirs(args.out, exist_ok=True)
    return b


def _write(args, name: str, write):
    """Write the file name under --out with write(path) and say so."""
    path = os.path.join(args.out, name)
    write(path)
    _say(path)


def _cmd_eigen(args) -> int:
    b = sc.build_scenario(_config_from_args(args))
    if b.basis.grid.ndim != 1:
        raise ValueError("eigen export covers 1D scenarios")
    save_basis(b.basis, args.out)
    _say(os.path.join(args.out, "basis.json"))
    _say(os.path.join(args.out, "states.npy"))
    for i, e in enumerate(b.basis.energies):
        print(f"E_{i} = {e:.12g}")
    return 0


def _cmd_evolve(args) -> int:
    b = _build(args)
    for j, (t, si) in enumerate(zip(b.frame_times, b.frame_states)):
        psi = evaluate(b.states[si], float(t))
        _write(args, f"psi_{j:04d}.csv", lambda p: field_to_csv(b.basis.grid, psi, p))
    return 0


def _cmd_fields(args) -> int:
    b = _build(args)
    d = decompose(b.states[0], args.t)
    _write(args, "decomposition.csv", lambda p: decomposition_to_csv(d, p))
    _write(args, "masks.csv", lambda p: masks_to_csv(d, p))
    return 0


def _cmd_streamlines(args) -> int:
    b = _build(args)
    lines = streamline_bundle(b.states[0], b.config.streamlines, b.span,
                              t_eval=sc.streamline_times(b))
    _write(args, "streamlines.csv", lambda p: streamlines_to_csv(lines, p))
    return 0


def _cmd_classify(args) -> int:
    b = _build(args)
    d = decompose(b.states[0], args.t)
    _write(args, "masks.csv", lambda p: masks_to_csv(d, p))
    print(f"area soft_qka = {mask_area(d.grid, d.soft_qka):.6g}  "
          f"soft_qrkc = {mask_area(d.grid, d.soft_qrkc):.6g}  "
          f"hard_qka = {mask_area(d.grid, d.hard_qka):.6g}  "
          f"hard_qrkc = {mask_area(d.grid, d.hard_qrkc):.6g}")
    return 0


def _cmd_vortex(args) -> int:
    b = _build(args, needs="vortex_2d")
    prof, v = sc.vortex_record(b.states[0], decompose(b.states[0], 0.0))
    _write(args, "vortex_profile.csv", lambda p: vortex_profile_to_csv(prof, p))
    print(f"fit_exponent = {v['fit_exponent']:.4f}  fit_Z = {v['fit_Z']:.4f}  "
          f"circulation = {v['circulation_along_swirl']:.6f}")
    return 0


def _cmd_tune(args) -> int:
    r = sc.tune_beam_splitter(_with_overrides(sc.default_config("mzi_1d"), args))
    print(f"U0* = {r.U0_star:.6g}  T = {r.transmission:.6f}  "
          f"probes = {len(r.history)}  bisections = {r.iterations}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write(args, "tuning.json", lambda p: write_json(p, sc.tuning_record(r)))
    return 0


def _cmd_scenario(args) -> int:
    manifest = sc.run_scenario(_config_from_args(args), args.out)
    _say(os.path.join(args.out, "manifest.json"))
    for key in ("frame_table", "streamlines", "loops", "nodes", "vortex_profile"):
        if key in manifest["files"]:
            _say(os.path.join(args.out, manifest["files"][key]))
    for fig in rd.default_figures(args.out, shading=args.shading):
        _say(fig)
    return 0


def _cmd_render(args) -> int:
    spec = rd.RenderSpec(kind=args.kind, shading=args.shading)
    out = args.out or os.path.join(args.run, f"{args.kind}_{spec.shading}.svg")
    rd.render_run(args.run, spec, out)
    _say(out)
    return 0


def _scenario_flags(name=None) -> tuple:
    """The flags that pick a scenario config: --name (defaulting to name),
    --config and one flag per override."""
    return (("--name", dict(default=name, help="scenario name")),
            ("--config", dict(help="key = value config file")),
            *(("--" + k.replace("_", "-"), dict(type=sc.FIELD_TYPES[k])) for k in _OVERRIDES))


_T = ("--t", dict(type=float, default=0.0, help="evaluation time"))
_OUT = ("--out", dict(required=True))
_SHADING = ("--shading", dict(choices=rd.SHADINGS, default="qka"))

# one row per subcommand: its handler, its help line and its flags in order,
# each flag an add_argument call
_COMMANDS = {
    "eigen": (_cmd_eigen, "solve and export an eigenbasis", (*_scenario_flags(), _OUT)),
    "evolve": (_cmd_evolve, "wavefunction frames over the scenario span",
               (*_scenario_flags(), _OUT)),
    "fields": (_cmd_fields, "energy ledger and masks at one time",
               (*_scenario_flags(), _T, _OUT)),
    "streamlines": (_cmd_streamlines, "fluid streamlines over the scenario span",
                    (*_scenario_flags(), _OUT)),
    "classify": (_cmd_classify, "superoscillation masks and areas at one time",
                 (*_scenario_flags(), _T, _OUT)),
    "vortex": (_cmd_vortex, "vortex profile and circulation",
               (*_scenario_flags("vortex_2d"), _OUT)),
    "tune": (_cmd_tune, "tune the mzi_1d splitter barrier height to 50/50",
             (("--tol", dict(type=sc.FIELD_TYPES["tol"])), ("--out", {}))),
    "scenario": (_cmd_scenario, "full deterministic run bundle plus figures",
                 (*_scenario_flags(), _OUT, _SHADING)),
    "render": (_cmd_render, "draw one SVG figure from a run directory",
               (("--run", dict(required=True, help="completed run directory")),
                ("--kind", dict(required=True, choices=rd.RENDER_KINDS)),
                _SHADING, ("--out", {}))),
}


def build_parser() -> _Parser:
    ap = _Parser(prog="madelung", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (fn, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
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
