"""Bundle checks for CI and a local run, `python tests/bundle_checks.py WORKDIR`
(a new directory): each stock bundle, export and figure is rebuilt by `python -m
madelung.cli` in a fresh interpreter, on the copy this one imports, and compared
byte for byte. Each check prints a verdict; the exit status is 1 if any failed."""

import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MZI = "mzi_1d --barrier-height 2437.5 --frames 4 --streamlines 3"
FIXED = "scenario --name mzi_1d --barrier-height 2437.5 --frames 2 --streamlines 1"
# scenario flags built into <tag>1, <tag>2 (and <tag>3 warm from CACHES[tag]); all equal
REBUILT = {"b": "well_superposition --frames 4", "v": "vortex_2d", "he": "ho_eigenstates",
           "p": "reflection_pulse --frames 8", "hs": "ho_superposition --frames 4", "m": MZI,
           "w": "mzi_1d --barrier-height 2437.5 --barrier-width 0.08 --frames 2 --streamlines 1",
           "t": "mzi_1d --frames 2 --streamlines 1"}
CACHES = {"m": "cache", "t": "tcache"}
# built at 1 and 2 OpenBLAS threads; False: thread-dependent until ROADMAP item 2, only reported
THREADS = {"well_superposition --frames 4": True, "well_barrier_superposition --frames 4": True,
           "vortex_2d": True, "reflection_pulse --frames 8": False, MZI: False}
# frozen oracles, whose bits must not move with the BLAS thread count
ORACLES = (*(f"tests/test_{m}.py" for m in ("offgrid", "flow", "energy", "grids", "spectral")),
           "-k", "TestOracle or TestPlan or TestLoops or TestStepperOracle or TestNodeSearchOracle"
           " or TestLedgerOracle or TestStackedStencils or TestPolish or TestPointsArray")
# a config.txt written while the frame archive could be turned off
OLD_CONFIG = "".join(f"{line}\n" for line in (
    "name = well_superposition", "grid_n = 2001", "modes = 4", "frames = 4", "streamlines = 9",
    "eta = 0.001", "tol = 0.01", "packet_center = none", "packet_momentum = none",
    "packet_width = none", "band_cap = none", "barrier_height = none", "barrier_width = none",
    "write_fields = true"))
# seconds one command may run before its check fails, so a hang fails its own check; the
# slowest commands, a cold tune and the oracle tests, take under a minute on 2 vCPUs
RUN_TIMEOUT = 600


def expect(ok, finding) -> list:
    return [] if ok else [finding]


def run(command, code=0, says=None, cache=None, threads=None) -> list:
    """Run `madelung COMMAND`, with MADELUNG_CACHE_DIR only if cache names one; another exit
    status than code, or a run past RUN_TIMEOUT, raises. Given says, stderr must be a JSON
    ValueError passing it."""
    env = {k: v for k, v in os.environ.items() if k != "MADELUNG_CACHE_DIR"}
    env.update({k: str(v) for k, v in [("MADELUNG_CACHE_DIR", cache),
                                        ("OPENBLAS_NUM_THREADS", threads)] if v})
    p = subprocess.run([sys.executable, "-m", "madelung.cli", *command.split()],
                       capture_output=True, text=True, env=env, timeout=RUN_TIMEOUT)
    if p.returncode != code:
        raise RuntimeError(f"madelung {command} exited {p.returncode}:\n{p.stderr}")
    doc = json.loads(p.stderr) if says else {}
    return expect(not says or doc["error"] == "ValueError" and says(doc["message"]), str(doc))


def differences(a, b) -> list:
    """What `diff -r a b` (or `cmp a b`, for two files) reports: each file on
    one side only and each file whose bytes differ."""
    def files(root):
        if not root.exists():
            raise FileNotFoundError(root)
        return {"": root} if root.is_file() else {
            p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}
    left, right = files(Path(a)), files(Path(b))
    return ([f"only in {a}: {k}" for k in sorted(left.keys() - right.keys())]
            + [f"only in {b}: {k}" for k in sorted(right.keys() - left.keys())]
            + [f"{Path(a, k)} and {Path(b, k)} differ" for k in sorted(left.keys() & right.keys())
               if left[k].read_bytes() != right[k].read_bytes()])


def same_as(ref, out, command, file="", **kw) -> list:
    """Run `madelung COMMAND --out OUT` and compare OUT/file with REF/file."""
    return run(f"{command} --out {out}", **kw) + differences(Path(ref, file), Path(out, file))


def rebuilt(tag) -> list:
    command, cache = f"scenario --name {REBUILT[tag]}", CACHES.get(tag)
    found = run(f"{command} --out {tag}1") + same_as(f"{tag}1", f"{tag}2", command, cache=cache)
    if cache:
        found += expect(any(Path(cache).iterdir()), f"{cache} is empty")
        found += same_as(f"{tag}1", f"{tag}3", command, cache=cache)
    return found


def thread_pair(flags, gate) -> list:
    command, name = f"scenario --name {flags}", flags.split()[0]
    found = run(f"{command} --out {name}_1", threads=1) + same_as(
        f"{name}_1", f"{name}_2", command, threads=2)
    if not gate:
        print(f"NOTE thread-dependent until ROADMAP item 2: {flags} at 1 and 2 threads: "
              + ("; ".join(found) or "equal"))
    return found if gate else []


def oracles(n) -> list:
    p = subprocess.run([sys.executable, "-m", "pytest", "-q", *ORACLES], capture_output=True,
                       text=True, cwd=ROOT, env={**os.environ, "OPENBLAS_NUM_THREADS": str(n)},
                       timeout=RUN_TIMEOUT)
    return expect(p.returncode == 0, f"pytest exited {p.returncode}\n{p.stdout[-3000:]}{p.stderr}")


def count(d, n, pattern="*") -> list:
    found = len(list(Path(d).glob(pattern)))
    return expect(found == n, f"{found} entries {pattern} in {d}, not {n}")


def raw_archive() -> list:
    with np.load("b1/frames.npz", allow_pickle=False) as z:
        rho, soft, want = z["rho"], z["soft_qka"], (z["t"].size, z["x"].size)
    return expect(rho.shape == soft.shape == want, f"rho {rho.shape}, soft {soft.shape}")


def retired_key() -> list:
    Path("old.txt").write_text(OLD_CONFIG)
    Path("off.txt").write_text(OLD_CONFIG.replace("write_fields = true", "write_fields = false"))
    return same_as("b2", "r1", "scenario --config old.txt") + run(
        "scenario --config off.txt --out r2", code=1, says=lambda m: m.startswith("write_fields"))


def exports() -> list:
    for r in ("x1", "x2"):
        for c in ("evolve", "fields", "classify", "streamlines"):
            run(f"{c} --name well_superposition --frames 2 --out {r}/{c}")
        run(f"vortex --out {r}/vortex")
        run(f"eigen --name quartic_superposition --out {r}/eigen")
    found = count("x1", 9, "*/*") + count("x1/evolve", 2) + differences("x1", "x2")
    found += run("fields --name well_superposition --barrier-height 15 --out d", code=1,
                 says=lambda m: "barrier_height" in m)
    return found + expect(not Path("d").exists(), "d was made")


def figures() -> list:
    # m1, the benchmark bundle, shades the most band rects of any stock bundle
    one_d = ("streamlines", "densities", "potential_landscape")
    twice = [(bundle, f"--kind {k} --shading {s}") for bundle, s in
             (("b1", "qka"), ("b1", "qrkc"), ("m1", "qrkc")) for k in one_d]
    found = []
    for bundle, kind in twice + [("v1", "--kind vortex")]:
        run(f"render --run {bundle} {kind} --out f1.svg")
        found += same_as("f1.svg", "f2.svg", f"render --run {bundle} {kind}")
    # render reads one figure's archive columns; the scenario drew its set from one shared read
    drawn = [(bundle, k) for bundle in ("b1", "m1") for k in one_d]
    for bundle, k in drawn + [("v1", "vortex")]:
        found += same_as(f"{bundle}/{k}.svg", f"{bundle}_{k}.svg",
                         f"render --run {bundle} --kind {k} --shading qka")
    return found


def refusals() -> list:
    Path("p70.txt").write_text("name = mzi_1d\npacket_momentum = 70\n")
    return run("scenario --name vortex_2d --streamlines 3 --out n1", code=1,
               says=lambda m: m.startswith("loop start (0.5, ")) + run(
        "scenario --config p70.txt --out n2", code=1, says=lambda m: m.startswith("band_cap = 89"))


def manifests() -> list:
    wide, tuned = (json.loads(Path(t, "manifest.json").read_text()) for t in ("w1", "t1"))
    seen = wide["config"]["barrier_width"], wide["derived"]["barrier"]["width"]
    windows = tuned["derived"]["diagnostics"]["tuning"]["probe_windows"]
    return expect(seen == (0.08, 0.08), f"barrier widths {seen}") + expect(
        windows and not any(fell_back for _, _, fell_back in windows), f"probe windows {windows}")


def reencoded() -> list:
    """Every manifest.json, nodes.json and tuning.json written so far, and every cached
    basis.json, holds the bytes json.dumps(indent=1, sort_keys=True) and a final LF give for
    what it reads back to; m1's nodes.json, the benchmark's node events, among them."""
    paths = sorted(p for name in ("manifest.json", "nodes.json", "tuning.json", "basis.json")
                   for p in Path().rglob(name))
    found = expect(Path("m1/nodes.json") in paths, f"no m1/nodes.json among {len(paths)} files")
    for p in paths:
        text = p.read_bytes()
        again = (json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n").encode()
        found += expect(again == text, f"{p} does not re-encode to its own bytes")
    return found


# one row per check: its name, function and arguments; run in order in WORKDIR
CHECKS = [
    *((f"oracle tests at {n} BLAS thread(s)", oracles, n) for n in (1, 2)),
    *((f"{flags}: equal when built again" + (" from a fresh cache and warm" if t in CACHES else ""),
       rebuilt, t) for t, flags in REBUILT.items()),
    *((f"{REBUILT[t]}: its config.txt replays to it", same_as, f"{t}1", f"{t}3",
       f"scenario --config {t}1/config.txt") for t in "bw"),
    ("well bundle: render --kind densities draws from it", run, "render --run b1 --kind densities"),
    ("well bundle: NumPy alone reads frames.npz, as the README does", raw_archive),
    ("streamlines --frames 4 writes the well bundle's streamlines.csv", same_as, "b1", "s1",
     "streamlines --name well_superposition --frames 4", "streamlines.csv"),
    ("old config: write_fields = true replays to the well bundle, = false is refused", retired_key),
    ("exports: a rerun writes the same 9 files, 2 of them from evolve; a setting the scenario"
     " does not read is refused before --out is made", exports),
    ("figures: each drawn twice is equal, and render draws the figure its scenario wrote",
     figures),
    ("figures: a kind the run lacks files for is refused", run, "render --run b1 --kind vortex", 1),
    ("manifests: width 0.08 recorded; no tuner probe fell back to a full solve", manifests),
    ("refused: a 2D loop start on the vortex core, and a band_cap dropping 44.6% of the"
     " packet (from a config file)", refusals),
    ("tuner cache: a second tune gives the same tuning.json and 11 entries (free well, ten"
     " probes); a build at 2437.5 adds a 12th and equals one without the cache",
     lambda: run("tune --out u1", cache="ucache")
     + same_as("u1", "u2", "tune", "tuning.json", cache="ucache") + count("ucache", 11)
     + run(f"{FIXED} --out u3", cache="ucache") + count("ucache", 12) + same_as("u3", "u4", FIXED)),
    *((f"1 and 2 threads{'' if gate else ', reported only'}: {flags}", thread_pair, flags, gate)
      for flags, gate in THREADS.items()),
    ("json files: every manifest, node list, tuning record and cached basis.json written"
     " above re-encodes to its own bytes", reencoded),
]


def main(argv) -> int:
    if len(argv) != 1:
        sys.exit(__doc__)
    os.makedirs(argv[0])  # FileExistsError if it exists: no stale file may pass a check
    if "PYTHONPATH" in os.environ:  # a relative entry (src) must still resolve in WORKDIR
        os.environ["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(p) for p in os.environ["PYTHONPATH"].split(os.pathsep))
    os.chdir(argv[0])
    failed = 0
    for name, check, *args in CHECKS:
        try:
            found = [line for finding in check(*args) for line in finding.splitlines()]
        except Exception:  # a failed call or a missing file fails this check only
            found = traceback.format_exc(limit=-1).splitlines()
        print(f"{'FAIL' if found else 'PASS'} {name}", *found, sep="\n    ", flush=True)
        failed += bool(found)
    print(f"{len(CHECKS) - failed} of {len(CHECKS)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
