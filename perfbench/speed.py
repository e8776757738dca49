"""Machine-speed correction for the timed runs.

The benchmark runs on a few cores of a shared host, whose speed swings by
up to half within seconds as its neighbours' load changes.  A timing taken
at one moment and another of the same code can differ by more than any
program change worth measuring.  So every timed process also runs a fixed
reference kernel that does not touch sphtile: Python dicts, tuples,
sorting, ``Fraction`` sums and small numpy arrays, the mix the library
itself runs.  While ops run, ``Speedometer`` runs the kernel every
``INTERVAL_S`` of wall time from a ``SIGALRM`` handler and records how
long it took.  A time is corrected by the ratio of ``KERNEL_REF_S`` to the
kernel times sampled while it ran:

    corrected = raw * KERNEL_REF_S * mean(1 / kernel_s)

which reads as the time the same work takes when the kernel runs in
``KERNEL_REF_S``.  The kernel's own time is taken out of every raw time
first.  A program change moves the corrected time as it moves the raw
time; a change of machine speed moves the kernel too and cancels.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# about one kernel run on an Intel Xeon host (2 vCPUs, Python 3.11, numpy
# 2.4, BLAS on one thread); only a scale, the same for every run
KERNEL_REF_S = 2.0e-3
INTERVAL_S = 0.025
# an op is corrected by the samples from this long before it to this long
# after it: the machine's speed holds for seconds, a single sample is noisy
WINDOW_S = 0.1
SETUP_SAMPLES = 5


def kernel() -> int:
    """A fixed mix of the work sphtile does, independent of sphtile."""
    table = {}
    for i in range(1500):
        table[(i % 97, i % 13, i)] = [i, str(i), (i, i + 1)]
    order = sorted(table.items(), key=lambda kv: (kv[0][1], -kv[0][0]))
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i)
    pts = np.arange(300.0).reshape(100, 3) + 1.0
    for _ in range(30):
        pts = pts / np.linalg.norm(pts, axis=1)[:, None] * 1.0001
    return len(order) + total.denominator % 7


def time_kernel() -> float:
    """One kernel run with the collector off, so sphtile's heap does not
    make the kernel slower; returns its duration in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(kernel_times) -> float:
    """The correction factor ``KERNEL_REF_S * mean(1 / kernel_s)``."""
    return KERNEL_REF_S * statistics.fmean(1.0 / k for k in kernel_times)


def setup_samples() -> list:
    """Kernel times right after the import, for correcting set-up time
    (the first run warms the kernel's own code paths and is dropped)."""
    time_kernel()
    return [time_kernel() for _ in range(SETUP_SAMPLES)]


class Speedometer:
    """Samples the kernel every ``INTERVAL_S`` while it is entered.

    ``stolen`` is the wall time spent in the kernel so far; subtract its
    growth over an interval to get the interval's own time.  Only the main
    thread may enter it (signal handlers run there).
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples = []  # (midpoint, kernel seconds)
        self.stolen = 0.0
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        k = time_kernel()
        self.samples.append((start + k / 2, k))
        self.stolen += time.perf_counter() - start
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor_between(self, start: float, end: float) -> float:
        """The correction for work done between two ``perf_counter`` times:
        the samples taken then or within ``WINDOW_S`` of it, or the one
        nearest if there is none."""
        inside = [k for t, k in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not inside:
            mid = (start + end) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return factor(inside)
