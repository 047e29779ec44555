"""Speed meter: scales timings to a reference host speed.

The host's speed drifts by up to 1.7x from one quarter second to the next.
So a timed process runs a ``Meter`` beside its work: every
``METER_PERIOD_S`` a SIGALRM handler, which runs between bytecodes of
whatever is running, times a fixed snippet of exact arithmetic.  A time
multiplied by the mean speed of the samples around it is a time at the
reference speed, where the snippet takes ``METER_REFERENCE_S``; the
snippet's own time is taken out first (``busy``).

Only the standard library is used, so the set-up probe can start the meter
before it imports anything else.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

METER_PERIOD_S = 0.025
# the snippet's time when a fresh interpreter imports numpy and adds 40,000
# fractions in 0.25 s, on the 2-core host the benchmark was built on
METER_REFERENCE_S = 0.0004
# samples this far before the start or after the end of a span count for it
METER_WINDOW_S = 0.1


def snippet() -> Fraction:
    s = Fraction(0)
    for i in range(1, 150):
        s += Fraction(1, i % 97 + 1)
    return s


class Meter:
    """Context manager that samples the host speed while it is entered;
    samples are (start, seconds) of one ``snippet``."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def sample(self, *_):
        # a collection the snippet happens to trigger would time the
        # interrupted job's heap, not the host
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        snippet()
        self.times.append(time.perf_counter() - start)
        self.starts.append(start)
        if enabled:
            gc.enable()

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, METER_PERIOD_S, METER_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.sample()

    def busy(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Seconds the meter took inside [start, end)."""
        return sum(t for s, t in zip(self.starts, self.times) if start <= s < end)

    def speed(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean host speed, relative to the reference, over the samples
        within METER_WINDOW_S of [start, end]; the nearest one if none is."""
        near = [METER_REFERENCE_S / t for s, t in zip(self.starts, self.times)
                if start - METER_WINDOW_S <= s <= end + METER_WINDOW_S]
        if not near:
            i = min(range(len(self.starts)), key=lambda i: abs(self.starts[i] - start))
            near = [METER_REFERENCE_S / self.times[i]]
        return statistics.mean(near)
