"""Record the checked output values of every workload in reference.json.

    python3 perfbench/make_reference.py

Run once at a commit whose outputs are known good; the benchmark then
checks each iteration against these values.  Only the values named in
``harness.CHECKED_DERIVED`` (and, for the tune workloads, the tuning
result and the number of cache entries) are recorded.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import harness


def main() -> int:
    madelung = harness.import_package()
    ref = {}
    for wl in harness.WORKLOADS.values():
        tmp = os.path.join(harness.WORK, "reference", wl.name)
        shutil.rmtree(tmp, ignore_errors=True)
        out, cache = os.path.join(tmp, "out"), os.path.join(tmp, "cache")
        os.environ.pop(harness.CACHE_ENV, None)
        if wl.cold_then_warm:
            os.environ[harness.CACHE_ENV] = cache
        with contextlib.redirect_stdout(io.StringIO()):
            rc = madelung.cli.run_cli([*wl.argv, "--out", out])
        os.environ.pop(harness.CACHE_ENV, None)
        if rc != 0:
            print(f"{wl.name}: exit code {rc}", file=sys.stderr)
            return 1
        ref[wl.name] = harness.reference_of(wl, out, cache)
        shutil.rmtree(tmp)
        print(f"recorded {wl.name}")
    with open(harness.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
