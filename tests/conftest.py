"""Fixtures shared across test modules."""

from collections import Counter

import pytest

from madelung import scenarios as sc
from madelung import spectral


@pytest.fixture(scope="session")
def mzi_build():
    """The stock tuned mzi_1d bundle, built once per session without a
    cache, and how often the build made a finite-difference eigensolve and
    a launch state."""
    calls = Counter()

    def counting(fn):
        def counted(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return counted

    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("MADELUNG_CACHE_DIR", raising=False)
        mp.setattr(spectral, "solve_eigen", counting(spectral.solve_eigen))
        mp.setattr(sc, "_launch_state", counting(sc._launch_state))
        bundle = sc.build_scenario(sc.default_config("mzi_1d"))
    return bundle, calls
