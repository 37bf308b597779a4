"""Scale timings to a reference speed of the machine.

On a shared machine the speed of one core changes, often by a factor of
1.5 to 2 and many times a second, which would swamp a change to the
library.  While a run measures, ``SpeedProbe`` times a fixed pure-Python
kernel (``reference_work``: exact ``Fraction`` arithmetic, dict updates and
tuple slicing, like the library's own work) every ``INTERVAL_S`` of wall
time, from a ``SIGALRM`` handler, so the samples fall inside long
operations too.  The time the kernel takes is taken out of the operation it
interrupted.  An operation's time is then scaled by ``REFERENCE_S`` times
the mean of ``1 / t`` over the kernel times ``t`` sampled while it ran (or
near it, for an operation shorter than the interval).  A scaled time reads
as the time the operation would take on a machine where the kernel takes
``REFERENCE_S``.

The kernel is part of the benchmark, not the library, so a change to the
library cannot move it.  Raw times are kept next to the scaled ones.
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

# Median time of one ``reference_work`` call on the machine the benchmark was
# defined on (x86_64, Python 3.11.7) in its slower, more common state.
REFERENCE_S = 0.00015
INTERVAL_S = 0.005
MIN_SAMPLES = 3


def reference_work(n: int = 20):
    acc = {}
    for i in range(n):
        w = (i % 3, i % 5, i % 2, i % 7, i % 3)
        acc[w] = acc.get(w, Fraction(0)) + Fraction(i % 11 - 5, i % 4 + 1)
        for k in range(1, 4):
            if w[k:] in acc:
                acc[w[k:]] -= 1
    return sorted(acc.items())


class SpeedProbe:
    """Kernel times sampled on a timer, and the scale factor they give for an
    interval.  Use as a context manager around the measured part of a run."""

    def __init__(self) -> None:
        self.times = array("d")  # midpoints, increasing
        self.durations = array("d")
        self.stolen = 0.0  # total time spent in the kernel so far
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)
        self.stolen += end - start

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` times the mean kernel speed over ``[start, end]``,
        widened until it holds ``MIN_SAMPLES`` samples."""
        widen = 0.0
        while True:
            lo = bisect_left(self.times, start - widen)
            hi = bisect_right(self.times, end + widen)
            if hi - lo >= MIN_SAMPLES or hi - lo == len(self.times):
                break
            widen += INTERVAL_S
        window = self.durations[lo:hi]
        if not window:  # nothing sampled yet: leave the time as it is
            return 1.0
        return REFERENCE_S * sum(1.0 / d for d in window) / len(window)

    def scale(self, starts, ends, raws) -> list[float]:
        """Scaled times of operations given by their start and end (wall
        clock) and their raw time."""
        return [raw * self.factor(s, e) for s, e, raw in zip(starts, ends, raws)]
