"""Fixtures shared across test modules."""

from collections import Counter

import pytest

from madelung import scenarios as sc
from madelung import spectral


@pytest.fixture(scope="session")
def mzi_build():
    """The stock tuned mzi_1d bundle, built once per session without a
    cache, how often the build made a launch state and evaluated a state
    on its grid (as "evaluate <potential>", by the state's potential), and
    the index range (first, last) of each finite-difference eigensolve it
    made."""
    calls = Counter()
    solves = []

    def counting(fn):
        def counted(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return counted

    solve = spectral.solve_eigen

    def solve_recorded(H, k, grid, potential=None, first=0):
        solves.append((first, k - 1))
        return solve(H, k, grid, potential, first)

    evaluate = sc.evaluate

    def evaluate_counted(s, t):
        calls[f"evaluate {type(s.basis.potential).__name__}"] += 1
        return evaluate(s, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc, "evaluate", evaluate_counted)
        mp.delenv("MADELUNG_CACHE_DIR", raising=False)
        mp.setattr(spectral, "solve_eigen", solve_recorded)
        mp.setattr(sc, "_launch_state", counting(sc._launch_state))
        bundle = sc.build_scenario(sc.default_config("mzi_1d"))
    return bundle, calls, solves
