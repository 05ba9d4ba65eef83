"""Rescaling op times to a reference machine speed.

The benchmark runs on a shared machine whose CPU speed changes from run to
run: over 80 runs (ten seeds, two sets, four workloads) a run's wall-clock
ops_per_s was 0.45 to 0.95 of its rescaled value.  That drift swamps the
differences between two commits.

A fixed kernel of the benchmark's own (interpreter loops, allocation, small
numpy ops; no bidmc code, so no change to the library moves it) is timed
between ops, on its second pass so that the cache state an op leaves
behind does not count.  Each op's time is multiplied by ``REF_KERNEL_S``
over the median kernel time of the samples nearest the op: the op time at
the speed where the kernel takes ``REF_KERNEL_S``.  Between those two sets
of runs the median wall-clock ops_per_s moved by 1-23% per workload, and
the rescaled one by 1-3%.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

# Median kernel time on the machine that defined the benchmark (a 2-core
# shared Xeon VM, Python 3.11, numpy 2.4).
REF_KERNEL_S = 2.2e-3
SAMPLE_EVERY_S = 0.2
WINDOW = 3


def _kernel() -> float:
    pairs = sorted(((i * 7919) % 1000 / 1000.0, 1.0 + i % 13) for i in range(3000))
    acc = sum(s * w for s, w in pairs)
    a = np.linspace(0.01, 0.49, 256)
    steps = np.arange(1, 257)
    for _ in range(60):
        a = np.clip(np.cumsum(a) / steps, 0.01, 0.49)
        acc += float((a * np.log2(a)).sum())
    return acc


def kernel_seconds() -> float:
    """Seconds taken by the fixed reference kernel, on warm caches."""
    _kernel()
    start = perf_counter()
    _kernel()
    return perf_counter() - start


class SpeedLog:
    """Kernel times sampled between ops, and the scale they imply."""

    def __init__(self):
        self.at: list[float] = []
        self.kernel_s: list[float] = []

    def sample_if_due(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= SAMPLE_EVERY_S:
            self.at.append(perf_counter())
            self.kernel_s.append(kernel_seconds())

    def scale(self, when: float) -> float:
        """Factor turning a time measured at ``when`` into reference-speed time."""
        lo = max(0, bisect.bisect(self.at, when) - WINDOW // 2 - 1)
        return REF_KERNEL_S / statistics.median(self.kernel_s[lo : lo + WINDOW])

    def run_scale(self) -> float:
        """Factor for quantities summed over the whole run."""
        return REF_KERNEL_S / statistics.median(self.kernel_s)
