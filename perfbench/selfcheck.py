"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced, with fewer frames and
streamlines where the command takes them, through the same code as
``run.py``.  It fails if an iteration's outputs fail their checks or
differ between the two runs, if any package attribute is not restored
after tracing or the speed probe's signal handler is not removed, if span
self times add up to more than the traced wall time, or if a per-layer metric of BENCHMARK.json is not reported or not
in ``layer_map.json``.
"""

from __future__ import annotations

import json
import os
import signal
import sys

import harness
import run


def _attributes():
    return {(name, key): value for name, mod in sorted(sys.modules.items())
            if mod is not None and name.split(".")[0] == "madelung"
            for key, value in vars(mod).items()}


def main() -> int:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(harness.HERE, "layer_map.json")) as fh:
        mapped = {m for group in json.load(fh)["map"] for m in group["metrics"]}
    wanted = [m["name"] for m in spec["per_layer"]]
    failures = [f"per-layer metric {m} is not in layer_map.json" for m in wanted
                if m not in mapped]

    madelung = harness.import_package()
    reference = harness.load_reference()
    for name, wl in harness.WORKLOADS.items():
        runner = harness.Runner(madelung, wl, reference[name], quick=True)
        before = _attributes()
        iters = runner.measure(0.0, trace=True)
        after = _attributes()
        plain, traced = iters
        layers = run.per_layer(iters)
        self_total = sum(row["self_s"] for row in runner.tracers[0].layer_totals().values())
        problems = [p for it in iters for p in it.problems]
        problems += [f"{mod}.{key} not restored" for (mod, key), value in before.items()
                     if after.get((mod, key)) is not value]
        if self_total > traced.raw_wall_s:
            problems.append(f"span self times {self_total:.4f} s exceed wall "
                            f"{traced.raw_wall_s:.4f} s")
        problems += [f"per-layer metric {m} not reported" for m in wanted if m not in layers]
        if signal.getsignal(signal.SIGALRM) is not signal.SIG_DFL:
            problems.append("the speed probe's SIGALRM handler was not removed")
        print(f"{name}: wall {plain.raw_wall_s:.2f} s, traced {traced.raw_wall_s:.2f} s, "
              f"self-time sum {self_total:.2f} s, spans {len(runner.tracers[0].spans)}: "
              f"{'ok' if not problems else 'FAILED'}")
        failures += [f"{name}: {p}" for p in problems]
    for f in failures:
        print(f, file=sys.stderr)
    print("self-check " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
