"""Workloads, output checks and measurement for the madelung benchmark.

Every workload runs in this process through ``madelung.cli.run_cli``, the
entry point behind the ``madelung`` command.  Iterations are timed with
tracing off and normalised by the machine speed sampled while they run
(see ``speed``); a traced iteration (see ``tracing``) gives the per-layer
numbers.  Each iteration's outputs are checked against ``reference.json``
and hashed, untimed, and then deleted.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import speed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
REFERENCE = os.path.join(HERE, "reference.json")
CACHE_ENV = "MADELUNG_CACHE_DIR"
TUNE_TOL = 0.01  # the `madelung tune` default
IMPORT_SAMPLES = 5


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # `madelung` arguments; the harness appends --out
    cold_then_warm: bool = False  # run twice against one fresh eigenbasis cache
    quick: tuple = ()  # extra arguments for the self-check


# The stock scenarios, cut down so that a run holds several iterations:
# machine speed drifts by tens of percent over seconds to minutes, and the
# median of several iterations is steadier than one long one.  mzi_1d runs
# at the barrier height the tuner finds (tune_cache times the tuner), with 3
# streamlines so that streamlines stay the largest span, as in the stock
# run.  well_frames draws 16 of the stock 64 frames; frame writing and
# rendering, which scale with the frame count, still take most of it.
# tune_cache is a user's first `madelung tune` (cache writes) followed by a
# second one (cache reads), so a read gain that costs writes cannot hide.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mzi_1d", ("scenario", "--name", "mzi_1d", "--barrier-height", "2437.5",
                            "--frames", "4", "--streamlines", "3"),
                 quick=("--frames", "2", "--streamlines", "1")),
        Workload("well_frames", ("scenario", "--name", "well_superposition",
                                 "--frames", "16"),
                 quick=("--frames", "4", "--streamlines", "2")),
        Workload("vortex_2d", ("scenario", "--name", "vortex_2d")),
        Workload("tune_cache", ("tune",), cold_then_warm=True),
    )
}

# manifest["derived"] entries compared with the reference
CHECKED_DERIVED = ("energies", "band_limits", "node_events", "vortex", "tuning")
REL_TOL = 1e-6
ABS_TOL = 1e-9
# node events: coordinates to the 1e-6 node-event acceptance budget, and a
# refined residual only needs to stay under the 1e-8 refinement target
KEY_ABS_TOL = {"t": 1e-6, "x": 1e-6, "residual": 1e-8}


# ------------------------------------------------------------- environment


def import_package():
    """Import madelung from this checkout's src/ and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "madelung")):
        raise BenchError(f"package source not found under {SRC}")
    sys.path.insert(0, SRC)
    import madelung
    import madelung.cli

    if not os.path.abspath(madelung.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported madelung from {madelung.__file__}, not {SRC}")
    return madelung


def _blas_threads() -> dict:
    """OpenBLAS thread count per loaded OpenBLAS library."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return out
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
                     if k in os.environ},
    }


# ------------------------------------------------------------------ checks


def _tree_files(*dirs):
    for top in dirs:
        for dirpath, dirnames, files in os.walk(top):
            dirnames.sort()
            for f in sorted(files):
                yield top, os.path.join(dirpath, f)


def tree_bytes(*dirs) -> int:
    return sum(os.path.getsize(p) for _, p in _tree_files(*dirs))


def tree_hash(*dirs) -> str:
    h = hashlib.sha256()
    for top, path in _tree_files(*dirs):
        h.update(os.path.relpath(path, top).encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def mismatches(got, want, where="", atol=ABS_TOL) -> list:
    """Differences of got from want; only keys present in want are compared."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object"]
        out = []
        for key, value in want.items():
            if key not in got:
                out.append(f"{where}.{key}: missing")
            else:
                out += mismatches(got[key], value, f"{where}.{key}",
                                  KEY_ABS_TOL.get(key, atol))
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: expected a list of {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]", atol)]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=atol):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def _listed_files(node):
    """Every file name in the manifest's file table (labels have no suffix)."""
    if isinstance(node, dict):
        for value in node.values():
            yield from _listed_files(value)
    elif isinstance(node, list):
        for value in node:
            yield from _listed_files(value)
    elif isinstance(node, str) and os.path.splitext(node)[1]:
        yield node


def _nonempty(path) -> bool:
    return os.path.isfile(path) and os.path.getsize(path) > 0


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def reference_of(wl: Workload, out_dir, cache_dir) -> dict:
    """The checked values of one command's outputs, as kept in reference.json."""
    if wl.cold_then_warm:
        return {"tuning": _load(os.path.join(out_dir, "tuning.json")),
                "cache_entries": len(os.listdir(cache_dir))}
    derived = _load(os.path.join(out_dir, "manifest.json"))["derived"]
    return {"derived": {k: derived[k] for k in CHECKED_DERIVED if k in derived}}


def check_outputs(wl: Workload, ref: dict, out_dir, printed: str) -> list:
    """Problems with one command's outputs; an empty list means it passed."""
    problems = []
    for line in printed.splitlines():
        if line.startswith("wrote ") and not _nonempty(line[len("wrote "):]):
            problems.append(f"{line[len('wrote '):]}: missing or empty")
    if wl.cold_then_warm:
        path = os.path.join(out_dir, "tuning.json")
        if not _nonempty(path):
            return problems + ["tuning.json: missing or empty"]
        result = _load(path)
        problems += mismatches(result, ref["tuning"], "tuning")
        if not abs(result.get("transmission", math.nan) - 0.5) < TUNE_TOL:
            problems.append(f"tuning: |T - 0.5| >= {TUNE_TOL}")
        return problems
    path = os.path.join(out_dir, "manifest.json")
    if not _nonempty(path):
        return problems + ["manifest.json: missing or empty"]
    manifest = _load(path)
    for rel in _listed_files(manifest.get("files", {})):
        if not _nonempty(os.path.join(out_dir, rel)):
            problems.append(f"{rel}: listed in the manifest but missing or empty")
    problems += mismatches(manifest.get("derived", {}), ref["derived"], "derived")
    return problems


def check_cache(ref: dict, cold_out, warm_out, cache_dir) -> list:
    """The warm run must repeat the cold run exactly from a complete cache."""
    problems = []
    n = len(os.listdir(cache_dir))
    if n != ref["cache_entries"]:
        problems.append(f"cache: {n} entries, expected {ref['cache_entries']}")
    problems += [f"{p}: empty" for _, p in _tree_files(cache_dir) if os.path.getsize(p) == 0]
    if _load(os.path.join(cold_out, "tuning.json")) != _load(os.path.join(warm_out, "tuning.json")):
        problems.append("tuning: the warm-cache result differs from the cold one")
    return problems


# ------------------------------------------------------------- measurement


@dataclass
class Iteration:
    wall_s: float  # normalised to machine speed (see speed)
    cpu_s: float
    written_bytes: int
    traced: bool
    problems: list = field(default_factory=list)
    layers: dict | None = None
    raw_wall_s: float = 0.0  # as measured, probe time excluded
    speed: float = 1.0  # machine speed during the iteration, 1.0 unloaded


def _cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


class Runner:
    """Runs one workload's iterations in this process and checks them."""

    def __init__(self, madelung, wl: Workload, ref: dict, quick: bool = False):
        self.cli = madelung.cli
        self.wl = wl
        self.ref = ref
        self.argv = list(wl.argv) + (list(wl.quick) if quick else [])
        self.root = os.path.join(WORK, wl.name)
        self.first_digest = None
        self.tracers = []
        self.count = 0
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        # only tune_cache may see an eigenbasis cache, and only its own
        os.environ.pop(CACHE_ENV, None)

    def iterate(self, traced: bool = False) -> Iteration:
        self.count += 1
        it_dir = os.path.join(self.root, f"it{self.count}")
        if self.wl.cold_then_warm:
            outs = [os.path.join(it_dir, "cold"), os.path.join(it_dir, "warm")]
            cache_dir = os.path.join(it_dir, "cache")
            os.makedirs(cache_dir)
            os.environ[CACHE_ENV] = cache_dir
        else:
            outs, cache_dir = [os.path.join(it_dir, "out")], None
            if CACHE_ENV in os.environ:
                raise BenchError(f"{CACHE_ENV} is set for {self.wl.name}")
        printed = [io.StringIO() for _ in outs]
        codes = []
        problems = []
        tracer = tracing.Tracer() if traced else None

        # A traced iteration is not probed while it runs, so that its spans
        # hold package time only; probes just before and after give its speed.
        probe = contextlib.nullcontext() if traced else speed.SpeedProbe()
        speed_before = speed.speed_now() if traced else None
        if tracer is not None:
            tracer.install()
        with probe:
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            try:
                for out, buf in zip(outs, printed):
                    with contextlib.redirect_stdout(buf):
                        codes.append(self.cli.run_cli(self.argv + ["--out", out]))
            except Exception:  # a crash inside the package fails this iteration
                problems.append("raised:\n" + traceback.format_exc())
            finally:
                wall = time.perf_counter() - t0
                cpu = _cpu_seconds() - cpu0
                if tracer is not None:
                    tracer.restore()
                os.environ.pop(CACHE_ENV, None)
        if traced:
            factor = (speed_before + speed.speed_now()) / 2
        else:
            wall -= probe.spent
            cpu -= probe.spent
            factor = probe.speed()

        problems += [f"exit code {rc}" for rc in codes if rc != 0]
        if not problems:
            for out, buf in zip(outs, printed):
                problems += check_outputs(self.wl, self.ref, out, buf.getvalue())
        if not problems and cache_dir is not None:
            problems += check_cache(self.ref, outs[0], outs[1], cache_dir)
        dirs = [d for d in outs + [cache_dir] if d and os.path.isdir(d)]
        written = tree_bytes(*dirs)
        if not problems:
            digest = tree_hash(*dirs)
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                problems.append("outputs differ from the first iteration's (determinism)")
        if tracer is not None:
            problems += [f"not restored: {a}" for a in tracer.unrestored()]
            self.tracers.append(tracer)
        shutil.rmtree(it_dir)
        layers = None
        if tracer is not None:
            layers = {k: v * factor if k.endswith((".s", ".self_s")) else v
                      for k, v in tracer.metrics().items()}
        return Iteration(wall * factor, cpu * factor, written, traced, problems, layers,
                         raw_wall_s=wall, speed=factor)

    def measure(self, seconds: float, trace: bool) -> list:
        """Iterate until `seconds` of wall time are timed, and at least
        twice: a lone first iteration reads slower and leaves a smaller
        peak RSS than later ones.  With trace, each step is an untraced and
        a traced iteration, so their difference is the tracing overhead."""
        done, spent = [], 0.0
        while spent < seconds or len(done) < 2:
            step = [self.iterate()]
            if trace:
                step.append(self.iterate(traced=True))
            done += step
            spent += sum(i.raw_wall_s for i in step)
        return done


# a fresh interpreter: probe, import the package, probe again
_IMPORT_SCRIPT = (
    "import sys; sys.path.insert(0, sys.argv[1]); import speed; a = speed.speed_now()\n"
    "import madelung.cli\n"
    "print((a + speed.speed_now()) / 2)"
)


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the package,
    normalised by the machine speed the interpreter measured around it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop(CACHE_ENV, None)
    times = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT, HERE], env=env,
                              check=True, timeout=120, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        times.append(wall * float(done.stdout))
    return statistics.median(times)


def load_reference() -> dict:
    return _load(REFERENCE)
