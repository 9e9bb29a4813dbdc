"""Machine-speed calibration.

On a shared machine the same pass can take 1.5x longer for minutes at a
time, because other tenants contend for the cores.  A fixed kernel that
does the kinds of work the package does (small einsum contractions, a
small eigensolve, exact fraction sums, dict traffic), and that never calls
the package, is timed between the benchmark's calls.  Dividing a measured
time by the kernel time taken alongside it cancels the machine's speed,
and ``REFERENCE_S`` turns the quotient back into seconds at a reference
speed: the kernel's median time on the 2-core Xeon machine the benchmark
was defined on.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.03
EVERY_S = 0.5

_RNG = np.random.default_rng(20131227)
_M = _RNG.standard_normal((9, 9))
_T = _RNG.standard_normal((8, 8, 8))


def kernel(reps=180):
    total = 0.0
    for i in range(reps):
        B = _M @ _M.T
        total += float(np.einsum('abc,ab,c->', _T, B[:8, :8], B[0, :8], optimize=True))
        total += float(np.linalg.eigvalsh(B)[0])
        total += float(sum((Fraction(k, k + 1) for k in range(1, 30)), Fraction(0)))
        total += sum({k: k * i for k in range(60)}.values())
    return total


class Calibrator:
    """Kernel timings, taken on demand or at most every ``EVERY_S``."""

    def __init__(self):
        self.samples = []
        self._last = float("-inf")

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def maybe(self):
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()


def at_reference_speed(seconds, kernel_s):
    return seconds * REFERENCE_S / kernel_s
