"""Machine-speed calibration: scale measured times to a calm reference machine.

The host this benchmark was made on slows every process down from outside,
by up to half, for periods from under a second to minutes, and a slowdown
often covers a whole run.  So while a pass runs, ``Sampler`` times a fixed
piece of pure-Python work (exact ``Fraction`` arithmetic and dict updates,
the kind of work the program does) from a timer signal, twenty times a
second, in between the program's own bytecodes.  Each job's time, less the
sampler's own, is scaled by ``REFERENCE_S`` over the mean sample time around
it.  The result reads as seconds on the reference machine when it is calm;
the wall-clock times are kept beside it in the results file.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# One calibration_work() call on the reference machine (2 cores, Python
# 3.11.7) when calm: the fastest 5 % of 900 samples taken during
# geometry-export and measure-check passes (0.49-0.50 ms; their median was
# 0.87 ms).  Only ratios of calibrated times mean anything across machines.
REFERENCE_S = 0.5e-3
PERIOD_S = 0.05
# A job is scaled by the samples from this long before it to this long after.
WINDOW_S = 0.25


def calibration_work() -> int:
    acc = Fraction(0)
    seen = {}
    for i in range(1, 200):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        seen[(i % 13, acc.denominator % 17)] = i
    return len(seen)


class Sampler:
    """Times calibration_work every PERIOD_S from SIGALRM while the context is open."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        calibration_work()
        self.durations.append(perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "Sampler":
        self._tick(None, None)  # so that even a pass shorter than PERIOD_S has samples
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def job_times(self, start: float, seconds: float) -> tuple[float, float]:
        """(wall-clock, calibrated) seconds of a job that ran from ``start`` for ``seconds``."""
        end = start + seconds
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.starts, end)
        own = seconds - sum(self.durations[first:last])
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        around = self.durations[lo:hi] or self.durations[max(0, lo - 1) : lo + 1]
        return own, own * REFERENCE_S / statistics.fmean(around)
