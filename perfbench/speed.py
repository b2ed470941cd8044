"""Machine-speed probe that puts timings on a common scale.

On a shared 2-vCPU host the same iteration takes anywhere from 1.2 s to
2.3 s: co-tenants slow the virtual CPUs for tens of seconds to minutes at a
time, and process CPU time swells with wall time (it is not reported as
steal).  Longer runs do not average that out.  So while an iteration is
timed, a timer signal runs a fixed probe in the main thread every
``INTERVAL`` seconds.  The probe is benchmark code, not package code, so a
faster package does not make it faster.

If the probe takes ``c_i`` where it takes ``REF_S`` when the host runs at
its fastest, the machine ran at speed ``REF_S / c_i``.  Probes are spread
evenly in wall time, so the work an iteration of net wall time ``T`` did
is ``T * mean(REF_S / c_i)`` seconds at full speed; that is the normalised
timing.  Probe time is subtracted from the iteration's timing first.
``REF_S`` only sets the scale: the normalised timing reads close to the
measured one when the host runs at its fastest.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL = 0.2  # seconds between probes
REF_S = 1.6e-3  # probe() seconds on this 2-vCPU Intel Xeon VM at its fastest
_STEPS = 20_000


def kernel() -> float:
    """Seconds the probe kernel takes: interpreted floating-point work, like
    most of the package's time.  Pure Python, so that a fresh interpreter
    can run it before it imports numpy."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(_STEPS):
        s += math.sqrt(i) * 0.5
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds of one warm run of the kernel.  The untimed first run loads
    its code and data into the caches, so the timed one depends far less on
    what the interrupted work left there."""
    kernel()
    return kernel()


def speed_now() -> float:
    """Machine speed from three probes in a row, 1.0 being the fastest."""
    return REF_S / min(probe() for _ in range(3))


class SpeedProbe:
    """Context manager sampling machine speed during a timed region."""

    def __init__(self):
        self.samples = []  # seconds of each probe
        self.spent = 0.0  # seconds spent in the signal handler
        self._old = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples.append(probe())  # untimed probe at the start
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(probe())  # untimed probe at the end
        return False

    def speed(self) -> float:
        """Mean machine speed over the region, 1.0 being the fastest."""
        return statistics.fmean(REF_S / c for c in self.samples)
