"""Time one workload set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC WORKLOAD TMP SEED

Prints the set-up time and then the calibration loop's time, in seconds.
The set-up covers importing the package (and numpy with it), parsing the
scenario and building the initial state or exact solution.
"""

import sys
import time

t0 = time.perf_counter()
src, name, tmp, seed = sys.argv[1:5]
sys.path.insert(0, src)
import workloads  # noqa: E402

workloads.make(name, tmp, int(seed))
elapsed = time.perf_counter() - t0

from calibrate import calibrate  # noqa: E402

print(repr(elapsed), repr(calibrate()))
