"""A fixed calibration loop that tracks how fast the machine runs right now.

On a shared virtual machine the same job can run 30% slower for a minute or
more when neighbours are busy.  The slowdown hits this loop too, so a job
time divided by the calibration time measured next to it drifts much less,
and multiplying by REFERENCE_S (a typical time of the loop on the 2-core
Xeon VM the benchmark was defined on) turns the ratio back into seconds at
that reference speed.  There, in a busy period, the spread of 15-30 s
medians of the `delta_compare` job fell from 27-31% raw to about 5% scaled;
in a quiet period the raw spreads were 4-8% and the scaled ones 2-10%.  The
loop mixes small numpy operations on FV-sized arrays with scalar Python
arithmetic, like the workloads, and uses no code of the package, so no
change to the package moves it.
"""

import math
import time

import numpy as np

REFERENCE_S = 0.03

_X = np.linspace(0.0, 1.0, 3000)


def calibrate() -> float:
    """Seconds the fixed loop takes now."""
    t0 = time.perf_counter()
    for _ in range(1600):
        b = np.where(_X > 0.5, _X, 1.0)
        c = np.concatenate((b[:1], b, b[-1:]))
        c[1:] - c[:-1]
    x = 0.0
    for i in range(160000):
        x = x * 0.999 + math.exp(-1e-5 * i)
    return time.perf_counter() - t0
