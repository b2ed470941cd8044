"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mzi_1d --seed 1 --seconds 10 --trace 0

Run from the repository root.  The package is imported from ``src/``.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  The workloads are the stock
configurations and have no random inputs, so ``--seed`` is recorded but
changes nothing.  ``wall_s``, ``cpu_s`` and ``setup_s`` are normalised by
the machine speed measured during each timed region (see ``speed``); the
wall time as measured is printed too.  Spans of a traced run are written to
``perfbench/_work/spans-<workload>.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

import harness
import tracing

MB = 1e6


def _spec() -> dict:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def end_to_end(iters, setup_s: float) -> dict:
    """Metrics of the untraced iterations, timings normalised to machine
    speed; peak RSS covers the whole process."""
    plain = [i for i in iters if not i.traced]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux
    return {
        "wall_s": statistics.median(i.wall_s for i in plain),
        "cpu_s": statistics.median(i.cpu_s for i in plain),
        "setup_s": setup_s,
        "peak_rss_mb": peak / MB,
        "written_mb": statistics.median(i.written_bytes for i in plain) / MB,
    }


def per_layer(iters) -> dict:
    traced = [i for i in iters if i.traced]
    plain = [i for i in iters if not i.traced]
    out = {k: statistics.median(i.layers[k] for i in traced) for k in traced[0].layers}
    out["trace.overhead_s"] = (statistics.median(i.wall_s for i in traced)
                               - statistics.median(i.wall_s for i in plain))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        spec = _spec()
        madelung = harness.import_package()
        env = harness.environment()
        wl = harness.WORKLOADS[args.workload]
        runner = harness.Runner(madelung, wl, harness.load_reference()[wl.name])
        setup_s = harness.import_seconds()
        iters = runner.measure(args.seconds, trace=bool(args.trace))
    except (harness.BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    print(f"# workload {wl.name}  argv {' '.join(wl.argv)}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for n, it in enumerate(iters, 1):
        print(f"# iteration {n}{' traced' if it.traced else ''}: wall {it.wall_s:.4f} s  "
              f"(measured {it.raw_wall_s:.4f} s, speed {it.speed:.3f})  "
              f"cpu {it.cpu_s:.4f} s  written {it.written_bytes} B  "
              f"{'FAILED ' + '; '.join(it.problems) if it.problems else 'ok'}")

    e2e = end_to_end(iters, setup_s)
    failed = sum(1 for i in iters if i.problems)
    print(f"# end-to-end (median over {sum(not i.traced for i in iters)} untraced iterations):")
    for m in spec["end_to_end"]:
        print(f"#   {m['name']:<14} {e2e[m['name']]:>14.6g} {m['unit']}")
    print(f"#   {'failed_frac':<14} {failed / len(iters):>14.6g} ({failed} of {len(iters)})")
    plain = [i for i in iters if not i.traced]
    print(f"#   as measured: wall {statistics.median(i.raw_wall_s for i in plain):.6g} s "
          f"at median machine speed {statistics.median(i.speed for i in plain):.4g}")

    if args.trace:
        layers = per_layer(iters)
        os.makedirs(harness.WORK, exist_ok=True)
        path = os.path.join(harness.WORK, f"spans-{wl.name}.csv")
        tracing.write_spans(runner.tracers, path)
        print(f"# per-layer (median over traced iterations); spans in {path}")
        if runner.tracers[0].missing:
            print(f"#   not in the package: {', '.join(runner.tracers[0].missing)}")
        for m in spec["per_layer"]:
            print(f"#   {m['name']:<44} {layers[m['name']]:>14.6g} {m['unit']}")
        chosen, values = spec["per_layer"], layers
    else:
        chosen, values = spec["end_to_end"], e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    print(json.dumps({"correct": failed == 0, "attempted": len(iters), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
