"""Record the reference outputs the benchmark compares every job against.

    python3 perfbench/record_refs.py

Run once at the commit whose outputs are the reference; it writes
``perfbench/ref/<workload>.npz`` with the output arrays of one job of each
workload: the final alpha and u (delta_compare, from the CLI's CSV) or alpha
and q (vacuum_fine), and for exact_oracles the `dropshock grh` trajectory,
the weak residuals, the blowup times and the last `dropshock exact` snapshot.
"""

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from dropshock import cli  # noqa: E402


def main() -> int:
    os.makedirs(os.path.join(HERE, "ref"), exist_ok=True)
    os.makedirs(os.path.join(ROOT, ".perfbench_out", "tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="record-", dir=os.path.join(ROOT, ".perfbench_out", "tmp"))
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.make(name, tmp, 0)
            out = os.path.join(tmp, name)
            os.makedirs(out)
            res = wl.check(out, wl.run(out, cli.main))
            bad = [detail for _, ok, detail in res.checks if not ok]
            if bad:
                print(f"{name}: not recording, checks failed: {bad}", file=sys.stderr)
                return 1
            path = os.path.join(HERE, "ref", f"{name}.npz")
            np.savez_compressed(path, **res.outputs)
            print(f"{name}: {sorted(res.outputs)} -> {os.path.relpath(path, ROOT)}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
