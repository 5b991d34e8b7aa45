"""A clock that discounts the host's changing speed.

On a shared host the same Python code runs up to about 1.8 times slower
while other tenants are busy, in bursts of a second to minutes.  Wall time
then measures the neighbours as much as the program.  :class:`HostClock`
measures how fast the host is running while the program runs: a timer
signal interrupts the program every ``period`` seconds, times a short
fixed reference (pure Python, like the simulator's hot loops), and charges
the program time since the previous sample at the speed that sample
showed.  The clock reads in reference units; :meth:`HostClock.scale`
turns them into seconds at the host's quiet speed, the low quantile of
the reference's times over the run.

The reference is program-independent, so a change to the program moves
the clock exactly as much as it moves wall time on a quiet host.  The
time spent in the reference itself is not charged to the program.
Outside :meth:`HostClock.calibrated` the clock is ``time.perf_counter``.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from statistics import median
from typing import Iterator

#: Seconds of program time between two reference samples.
PERIOD = 0.01

#: Reference samples taken before the program starts, so the first
#: segment has a speed to be charged at.
WARMUP_SAMPLES = 50

#: The quantile of the reference's times taken as the host's quiet speed:
#: low, because a busy host leaves well under 1% of a run quiet.
QUIET_QUANTILE = 0.001


def _low_bit(n: int) -> int:
    return n & 1


def reference() -> int:
    """A fixed piece of pure-Python work of about 0.3 ms on a quiet host:
    calls, a generator expression under ``sum``, dict reads and writes and
    integer arithmetic, the mix of the simulator's hot loops."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(300):
        acc += sum(_low_bit(j) for j in range(i & 15))
        counts[i & 63] = counts.get(i & 63, 0) + acc
    return acc


class HostClock:
    """``now()`` is ``time.perf_counter`` unless :meth:`calibrated`."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._on = False
        self._units = 0.0
        self._mark = 0.0
        self._ref = 1.0
        self._seq = 0

    def now(self) -> float:
        if not self._on:
            return time.perf_counter()
        while True:  # retry if a sample landed while reading the state
            seq = self._seq
            value = self._units + (time.perf_counter() - self._mark) / self._ref
            if seq == self._seq:
                return value

    def _sample(self, signum: int = 0, frame: object = None) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self._units += (t0 - self._mark) / self._ref
        self._ref = t1 - t0
        self._mark = t1
        self.samples.append(self._ref)
        self._seq += 1

    @contextmanager
    def calibrated(self, period: float = PERIOD) -> Iterator["HostClock"]:
        """Sample the host's speed every ``period`` s while inside."""
        self.samples = []
        for _ in range(WARMUP_SAMPLES):
            self._mark = time.perf_counter()
            self._sample()
        self._ref = median(self.samples)
        self._units, self._on = 0.0, True
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self._on = False

    def scale(self) -> float:
        """Seconds per clock unit: the reference's quiet time."""
        if not self.samples:
            return 1.0
        ordered = sorted(self.samples)
        return ordered[int(QUIET_QUANTILE * (len(ordered) - 1))]

    def slowdown(self) -> float:
        """Median reference time over its quiet time (1.0 = a quiet host)."""
        return median(self.samples) / self.scale() if self.samples else 1.0


#: The clock the workloads time themselves with.
CLOCK = HostClock()
