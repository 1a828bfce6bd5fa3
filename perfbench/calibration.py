"""A fixed calibration kernel that the timings are scaled by, and the scaling rule.

On a shared virtual machine, such as the 2-vCPU host the benchmark was defined on, CPU speed
drifts by tens of percent in phases of a minute or more.  Runs of the same code at different
times then differ by more than the regressions the benchmark should catch.  The kernel is a fixed mix of
interpreter loops, numpy array passes and sparse shift-invert eigensolves (the kinds of work
locscape does) that calls no locscape code, so no change to the program can move it.  Worker
processes time it right before the first CLI call and after every call.  Each iteration's
body and set-up times are scaled by ``REFERENCE_S`` over the mean of that iteration's kernel
times, which follows the drift through a run; one kernel time jitters by about 10%, so a
single sample would not do.  The scaled figures read as seconds on a host where the kernel
takes ``REFERENCE_S``; the raw figures are printed beside them.
"""

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REFERENCE_S = 0.1       # about the kernel's time on the 2-vCPU host the benchmark was defined on


class Kernel:
    """Calling an instance runs the kernel once and returns its wall seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        n = 401
        self.pencil = sp.diags([-np.ones(n - 1), 2 + 10 * rng.random(n), -np.ones(n - 1)],
                               [-1, 0, 1], format="csc")
        self.x = rng.random(20_000)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(200_000):
            acc += (i * 7) % 13
            table[i & 1023] = acc
        for _ in range(15):
            spla.eigsh(self.pencil, k=1, sigma=0, which="LM")
        for _ in range(150):
            np.cumsum(np.sqrt(self.x) * 1.5 + self.x).sort()
        return time.perf_counter() - t0


def speed_factor(cal_s) -> float:
    """What an iteration's raw times are multiplied by to read at the reference speed."""
    return REFERENCE_S / statistics.fmean(cal_s)
