"""Machine-speed correction for the benchmark's end-to-end times.

On a shared machine the CPU's speed for interpreted code switches between
states up to 1.8x apart, about every second, and drifts over minutes; it
does so for every process alike.  A fixed pure-Python kernel, independent
of the package, is timed before and after every op and, at most every
PERIOD_S, at chosen calls inside long ops.  An op's latency is then scaled
to the speed at which the kernel takes REFERENCE_KERNEL_S, using the mean
of the kernel samples taken from just before to just after it.  The kernel
time itself is kept out of every latency.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_KERNEL_S = 0.011
PERIOD_S = 0.25


def speed_kernel() -> float:
    """Seconds taken to visit the 5040 permutations of 7 items."""
    buckets = [0] * 13

    def rec(used, depth, code):
        if depth == 7:
            buckets[code % 13] += 1
            return
        for j in range(7):
            if not used >> j & 1:
                rec(used | 1 << j, depth + 1, code * 3 + j)

    t0 = time.perf_counter()
    rec(0, 0, 0)
    return time.perf_counter() - t0


class SpeedSampler:
    """Kernel samples, and the wall time they took, over one workload process."""

    def __init__(self):
        self.samples: list[float] = []
        self.excluded_s = 0.0
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(speed_kernel())
        self._last = time.perf_counter()
        self.excluded_s += self._last - t0

    def hooked(self, fn):
        """Wrap fn so that a call takes a sample first when PERIOD_S has passed."""

        def wrapper(*args, **kwargs):
            if time.perf_counter() - self._last >= PERIOD_S:
                self.sample()
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, fn, *args):
        """Run fn(*args) between two samples.

        Returns (result or the exception raised, latency without kernel
        time, mean kernel time over the samples from before to after).
        The sample after one op is the sample before the next.
        """
        if not self.samples:
            self.sample()
        first = len(self.samples) - 1
        excluded = self.excluded_s
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # an op that raises counts as failed
            out = exc
        latency = time.perf_counter() - t0 - (self.excluded_s - excluded)
        self.sample()
        return out, latency, statistics.mean(self.samples[first:])
