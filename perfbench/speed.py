"""Host speed reference, to put times measured at different host speeds
on one scale.

On a shared 2-core VM the speed of the same pure-Python loop was seen to
swing by 2x (48 ms to 98 ms), in phases that last from seconds to over a
minute, and the process's CPU time swings with it.  No statistic inside
a 40-second run can remove a phase that outlasts the run.  So the harness
times a fixed reference loop, which never calls the package, every
`SAMPLE_EVERY_S` between ops, and scales each measured time by
`REF_NOMINAL_S / (the median reference time within WINDOW_S of it)`.
A scaled time reads as the time on a host running at the reference speed,
the speed at which `reference_work` takes `REF_NOMINAL_S`.  Raw times are
reported next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

REF_NOMINAL_S = 0.55e-3
SAMPLE_EVERY_S = 0.1
WINDOW_S = 0.5


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def reference_work() -> Fraction:
    """A small layer sum in plain Python, the package's kind of work:
    enumerate the partitions of 11, take their hook lengths, memoize them
    in a dict and add up 1/(product of hooks) exactly.  Of the candidates
    tried, its time tracked the workloads' best across the host's speed
    phases (to within about 5%)."""
    memo: dict[tuple[int, ...], tuple[int, ...]] = {}
    total = Fraction(0)
    for lam in _partitions(11, 11):
        cols = [sum(1 for p in lam if p > j) for j in range(lam[0])]
        hooks = tuple(row - j + cols[j] - i - 1 for i, row in enumerate(lam) for j in range(row))
        memo[lam] = hooks
        product = 1
        for h in hooks:
            product *= h
        total += Fraction(1, product)
    return total


class Speedometer:
    """Reference timings over the run, as sorted (start, seconds) pairs."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        reference_work()
        self.starts.append(start)
        self.seconds.append(perf_counter() - start)

    def tick(self) -> None:
        """Sample if the last sample is `SAMPLE_EVERY_S` old."""
        if not self.starts or perf_counter() - self.starts[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Scale for a time measured over [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        near = self.seconds[lo:hi]
        if not near:
            i = min(bisect.bisect_left(self.starts, start), len(self.starts) - 1)
            near = [self.seconds[i]]
        return REF_NOMINAL_S / statistics.median(near)
