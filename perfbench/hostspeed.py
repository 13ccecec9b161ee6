"""Host speed: a fixed reference kernel timed between the ops of a run.

The benchmark was built on a shared 2-vCPU virtual machine whose throughput
drifts by 1.5-2x over minutes, for the program and for any other code alike.
One run cannot average such a drift away, so runs made a few minutes apart
disagreed by more than any useful regression bound. The end-to-end times are
therefore reported at a nominal host speed: each op time of a pass is
multiplied by

    NOMINAL_S / (mean duration of the reference kernel over the same pass)

The kernel is the benchmark's own code and never calls the program, so a
change to the program cannot move it. It does the kinds of work the program's
kernels do (companion-matrix roots of cubics through NumPy, bisection with
Horner evaluation in Python floats, small tuple lists), so that it slows
down when they do. It is sampled between ops for about SHARE of each op's
duration, so that its mean weighs every moment of the pass alike. A set-up
time is scaled the same way, by kernel calls made right after it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SHARE = 0.05
NOMINAL_S = 1e-3  # one kernel call at nominal host speed; about its time on the build machine
_CUBICS = [(0.3 - 0.01 * i, -0.2 + 0.02 * i, 0.05, -0.02 - 0.01 * (i % 5)) for i in range(16)]


def kernel():
    acc = 0.0
    for a, b, c, d in _CUBICS:
        acc += float(np.roots([d, c, b, a]).real.sum())
        lo, hi = -3.0, 3.0
        for _ in range(25):
            mid = 0.5 * (lo + hi)
            if ((d * mid + c) * mid + b) * mid + a > 0.0:
                hi = mid
            else:
                lo = mid
        pairs = sorted((c * x, x) for x in (0.4, 0.3, 0.2, 0.1))
        acc += lo + pairs[0][0]
    return acc


class HostSpeed:
    """Durations of the reference kernel, sampled in proportion to busy time."""

    def __init__(self):
        self.samples = []

    def sample(self, busy_s):
        """Run the kernel for about SHARE of `busy_s`, and at least once."""
        spent = 0.0
        while not spent or spent < SHARE * busy_s:
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)
            spent += self.samples[-1]

    def scale(self):
        """Factor from measured seconds to seconds at nominal host speed."""
        return NOMINAL_S / statistics.fmean(self.samples)
