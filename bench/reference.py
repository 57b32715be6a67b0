"""How fast the machine runs right now, from a fixed loop that is not heatkato.

On a shared host other tenants slow every task down, by up to 2x and for up to
a minute at a time, so a raw pass time says as much about the neighbours as
about heatkato.  The benchmark times this loop just before and just after each
task (and each set-up) and scales the task's time by ``NOMINAL_S / loop time``:
the result reads as seconds on the machine at its nominal speed.  The loop
mixes interpreted float arithmetic with numpy ufuncs on a fixed buffer, the
two kinds of work heatkato's layers do, and allocates nothing, so what the
program did before it does not change its time.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

NOMINAL_S = 0.010  # the loop's best time on an idle 2-vCPU Intel Xeon VM
REPEATS = 3  # the loop's time is the best of this many, so a single stall is ignored
_BUF = np.linspace(0.0, 1.0, 8192)
_OUT = np.empty_like(_BUF)


def reference_s() -> float:
    best = math.inf
    for _ in range(REPEATS):
        t0 = perf_counter()
        x = 0.0
        for k in range(1, 50000):
            x += math.sin(k * 1e-3) / k
        for _ in range(200):
            np.exp(_BUF, out=_OUT)
            np.sqrt(_OUT, out=_OUT)
            np.multiply(_OUT, _BUF, out=_OUT)
        best = min(best, perf_counter() - t0)
    return best


def at_nominal_speed(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while the reference loop took ``ref_s``."""
    return seconds * NOMINAL_S / ref_s
