"""Per-layer spans for the traced benchmark run.

Each traced function is wrapped at every ``madelung.*`` module attribute
that holds it, because callers resolve names in their own module (for
example ``madelung.flow.evaluate_at`` is what the streamline integrator
calls).  Spans (name, start, end, parent) are kept in memory and reduced
to per-layer sums, self times and counts; ``restore`` puts every original
attribute back.

A traced name that the package no longer defines is skipped, so the
benchmark keeps running when a later change merges or removes a function;
its metrics then read 0.
"""

from __future__ import annotations

import csv
import functools
import os
import sys
import time
from collections import Counter

# span name = "<module>.<function>" inside the madelung package
SPANS = (
    "cli.run_cli",
    "scenarios.run_scenario",
    "scenarios.build_scenario",
    "scenarios.tune_beam_splitter",
    "spectral.eigenbasis",
    "spectral.solve_eigen",
    "spectral.save_basis",
    "spectral.load_basis",
    "states.project_field",
    "states.project_gaussian",
    "states.evaluate_at",
    "states.evaluate_at_dx",
    "states.evaluate_along",
    "states.evaluate_at_dt",
    "states.evaluate_at_2d",
    "states.evaluate_at_grad_2d",
    "energy.decompose",
    "energy.classify_superoscillation",
    "energy.decomposition_to_csv",
    "energy.masks_to_csv",
    "grids.gradient",
    "grids.laplacian",
    "flow.integrate_streamline",
    "flow.find_nodes",
    "flow.integrate_loop_2d",
    "flow.vortex_profile",
    "flow.streamlines_to_csv",
    "render.default_figures",
    "render.render_run",
)

# off-grid evaluators, counted under the span that called them
EVALUATORS = frozenset(s for s in SPANS if s.startswith("states.evaluate_"))


def _path_arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _tree_bytes(path) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


# counters taken from a traced call's arguments or result
_COUNTS = {
    "scenarios.tune_beam_splitter": lambda a, k, r: (
        "scenarios.tune_beam_splitter.probes", len(r.history)),
    "flow.find_nodes": lambda a, k, r: ("flow.find_nodes.events", len(r)),
    "spectral.save_basis": lambda a, k, r: (
        "spectral.cache.bytes", _tree_bytes(_path_arg(a, k, 1, "path"))),
    "energy.decomposition_to_csv": lambda a, k, r: (
        "energy.frame_bytes", _tree_bytes(_path_arg(a, k, 1, "path"))),
    "energy.masks_to_csv": lambda a, k, r: (
        "energy.frame_bytes", _tree_bytes(_path_arg(a, k, 1, "path"))),
    "render.render_run": lambda a, k, r: (
        "render.svg_bytes", _tree_bytes(_path_arg(a, k, 2, "out_path"))),
}


class Tracer:
    """Wraps the package's layer functions and records one span per call."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self._stack = [-1]
        self._patched = []  # (module, attribute, original)
        self.missing = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = _COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            rec = [name, 0.0, 0.0, stack[-1]]
            spans.append(rec)
            stack.append(i)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                key, n = count(args, kwargs, result)
                counts[key] += n
            return result

        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "madelung" or n.startswith("madelung."))]
        for name in SPANS:
            mod_name, attr = name.rsplit(".", 1)
            home = sys.modules.get("madelung." + mod_name)
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def restore(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)

    def unrestored(self) -> list:
        """Patched attributes that do not hold their original value."""
        return [f"{mod.__name__}.{key}" for mod, key, original in self._patched
                if getattr(mod, key) is not original]

    def layer_totals(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child[i]
        return out

    def metrics(self) -> dict:
        """Flat per-layer metrics for one traced iteration."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for name, row in self.layer_totals().items():
            for key, value in row.items():
                out[f"{name}.{key}"] = value
        owners = {"flow.integrate_streamline": 0, "flow.find_nodes": 0}
        for name, _, _, parent in self.spans:
            if name in EVALUATORS and parent >= 0:
                owner = self.spans[parent][0]
                if owner in owners:
                    owners[owner] += 1
        for owner, n in owners.items():
            out[f"{owner}.evaluator_calls"] = n
        for key in ("scenarios.tune_beam_splitter.probes", "flow.find_nodes.events",
                    "spectral.cache.bytes", "energy.frame_bytes", "render.svg_bytes"):
            out[key] = self.counts[key]
        eig = out["spectral.eigenbasis.calls"]
        out["spectral.cache.hit_ratio"] = out["spectral.load_basis.calls"] / eig if eig else 0.0
        out["trace.spans"] = len(self.spans)
        return out


def write_spans(tracers, path):
    """All spans of the traced iterations, one row each."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "id", "name", "start_s", "end_s", "parent"])
        for n, tracer in enumerate(tracers, 1):
            for i, (name, t0, t1, parent) in enumerate(tracer.spans):
                w.writerow([n, i, name, repr(t0), repr(t1), parent])
