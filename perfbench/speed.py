"""A fixed slice of interpreter work whose time tracks the CPU's speed.

On a small shared host the CPU's speed wanders by tens of percent
over seconds to minutes.  Timing this kernel next to the measured work,
on the same CPU, lets a measured time be reported at a fixed nominal
speed: ``measured * KERNEL_NOMINAL_S / kernel time``.  The kernel does
the kind of work every library call does (small numpy arrays, math,
Python calls) and touches nothing in countcomp.
"""

from __future__ import annotations

import math
import time

import numpy as np

KERNEL_NOMINAL_S = 6e-4


def kernel() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(100):
        a = np.array((0.5 + i, 1.5, 2.5))
        acc += float(np.log(a).sum()) + math.lgamma(1.0 + i)
        acc += sum(math.log(x) for x in (1.0, 2.0, 3.0))
    return time.perf_counter() - start
