"""The machine's speed over a run, from a fixed calibration kernel.

On a shared virtual machine the same code can run 1.5x slower for seconds or
minutes at a time, whatever the program does.  The benchmark therefore times
a small fixed kernel between its calls into tenbed, at least every
``INTERVAL`` seconds, and divides each call's time by the slowdown measured
around it: the kernel's time over ``REFERENCE_S``.  Timings are thus reported
at one reference machine speed, and a change in tenbed still shows, because
the kernel does not call tenbed.  The raw timings stay in each run's detail.

The kernel mixes what tenbed's hot paths do: a Python loop of row gathers
and small ``np.outer`` products, as in the tensor-product layers' forward.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

INTERVAL = 0.05
# the kernel's median time on the machine the baseline was recorded on, in
# its faster state; it only sets the scale of the reported numbers
REFERENCE_S = 0.00064


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._table = rng.standard_normal((4096, 64))
        self._rows = [int(i) for i in rng.integers(0, 4096, 256)]
        self.times: list[float] = []  # start of each kernel run
        self.slowdowns: list[float] = []

    def _kernel(self) -> float:
        acc = np.zeros(64)
        table = self._table
        for i in self._rows:
            row = table[i]
            acc += np.outer(row[:8], row[8:16]).ravel()
        return float(acc[0])

    def sample(self) -> None:
        start = time.perf_counter()
        self._kernel()
        self.times.append(start)
        self.slowdowns.append((time.perf_counter() - start) / REFERENCE_S)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL:
            self.sample()

    def slowdown(self, start: float, seconds: float) -> float:
        """Mean slowdown of the kernel runs from the last one before ``start``
        to the first one after ``start + seconds``."""
        lo = max(bisect.bisect_right(self.times, start) - 1, 0)
        hi = bisect.bisect_left(self.times, start + seconds) + 1
        window = self.slowdowns[lo:hi]
        return sum(window) / len(window)

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` as they would read at the reference speed."""
        return seconds / self.slowdown(start, seconds)
