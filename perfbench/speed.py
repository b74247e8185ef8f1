"""Machine-speed calibration of the benchmark's times.

A shared machine changes speed by tens of percent over seconds to minutes as
other tenants come and go.  The benchmark therefore runs a fixed reference
kernel right before and right after every timed operation and reports each
time as ``KERNEL_NOMINAL_S * median(operation seconds / kernel seconds)``:
seconds on a machine where the kernel takes ``KERNEL_NOMINAL_S``.  The kernel
does not touch weylmass, so a change to the program moves the ratio and a
change in the machine's speed cancels.  Raw seconds stay in the result file.
"""

from __future__ import annotations

import statistics
import time

# about the kernel's time on an unloaded 2-core x86-64 VM (Python 3.11, numpy 2.4)
KERNEL_NOMINAL_S = 0.060


class ReferenceKernel:
    """A fixed mix of interpreter, small-matrix and einsum work: a machine-speed probe.

    Three parts of about 20 ms each: an interpreter loop, 4x4 matrix steps,
    and an einsum over a 5x5x2500 batch -- the mix of the workloads.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.normal(size=(5, 5, 2500))
        self.b = rng.normal(size=(5, 5, 2500))
        self.s = rng.normal(size=(4, 4))

    def __call__(self) -> float:
        np = self.np
        start = time.perf_counter()
        acc = 0.0
        for i in range(300_000):
            acc += (i % 7) * 0.5
        s = self.s
        for _ in range(6000):
            s = np.tanh(s @ self.s) + 0.1 * s
        for _ in range(80):
            np.einsum("ij...,jk...->ik...", self.a, self.b)
        return time.perf_counter() - start

    def median_of(self, runs: int) -> float:
        return statistics.median(self() for _ in range(runs))


def calibrated(seconds, kernel_seconds) -> float:
    """Median of the per-operation ratios, expressed in nominal seconds."""
    return KERNEL_NOMINAL_S * statistics.median(s / k for s, k in zip(seconds, kernel_seconds))
