"""Machine-speed calibration for the benchmark's time metrics.

On a shared VM the same computation runs up to 30 % slower for tens of
seconds at a time, and CPU time slows with wall time. A ``Calibration``
times a fixed, stdlib-only kernel between workload items, for a set share of
the run, and scales the run's times to the speed at which one kernel run
takes ``KERNEL_REF_S``. The kernel uses none of the package's code, so a
change to the package never moves it. The scale is the median kernel time,
so a burst during a few kernel runs does not set it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# One kernel run at reference speed; about its time on a quiet 2.1 GHz Xeon.
KERNEL_REF_S = 0.010
# Kernel time as a share of workload time during the timed loop.
KERNEL_SHARE = 0.1


def kernel():
    """Fixed work resembling the package's: Fraction sums and comparisons,
    integer arithmetic in a loop, small frozenset unions."""
    s = Fraction(0)
    for i in range(1, 1500):
        s += Fraction(i % 97 + 1, 1000 + i % 13)
        if s > 50:
            s -= 50
    acc = 0
    for i in range(30000):
        acc = (acc * 31 + i) % 1000003
    u = frozenset()
    for i in range(300):
        u = u | {i % 57, (i * 7) % 61}
    return s, acc, len(u)


class Calibration:
    """Kernel timings taken during one stretch of a run."""

    def __init__(self):
        self.samples = []
        self.total = 0.0

    def run(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = perf_counter()
            kernel()
            dt = perf_counter() - t0
            self.samples.append(dt)
            self.total += dt

    def keep_share(self, work_s: float) -> None:
        """Run the kernel until it has taken KERNEL_SHARE of ``work_s``."""
        while self.total < KERNEL_SHARE * work_s:
            self.run()

    def scale(self) -> float:
        """Factor that turns seconds measured now into reference seconds."""
        return KERNEL_REF_S / statistics.median(self.samples)
