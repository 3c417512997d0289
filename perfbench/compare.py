"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by run.py (``.perfbench_out/results``
copied aside after running one commit).  Runs of a workload are paired in the
order they were made, so alternate the two sides when running them.  A row
gives each side's median and quartiles, the share of pairs the change won
(ties count for neither) and a verdict under the bounds in BENCHMARK.json:

- improved:   the change wins at least 90% of pairs and the medians differ,
              in its favour, by more than the base's quartile distance;
- no worse:   the change's median is not worse than the base's by more than
              the bound, and both sides' spreads are within the bound (or
              every change run beats every base run);
- worse:      worse by more than the bound, with both spreads within it;
- unresolved: a spread is wider than the bound.

Metrics without a bound (the per-layer ones) get no verdict.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict:
    """workload -> metric -> values, in the order the runs were made."""
    runs = []
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path, "r", encoding="utf-8") as fh:
            runs.append(json.load(fh))
    runs.sort(key=lambda r: r["started"])
    out = {}
    for r in runs:
        for name, entry in r["metrics"].items():
            out.setdefault(r["workload"], {}).setdefault(name, []).append(entry["value"])
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    win_share = wins / len(pairs) if pairs else 0.0
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    if bound is None:
        return win_share, "-"
    scale = abs(bmed) or 1.0
    worse_by = sign * (cmed - bmed) / scale
    spread_ok = (bq3 - bq1) / scale <= bound and (cq3 - cq1) / (abs(cmed) or 1.0) <= bound
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    if win_share >= 0.9 and -sign * (cmed - bmed) > bq3 - bq1:
        return win_share, "improved"
    if all_better or (spread_ok and worse_by <= bound):
        return win_share, "no worse"
    return win_share, "worse" if spread_ok else "unresolved"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(os.path.isdir(d) for d in argv):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, change = (load(d) for d in argv)
    print(f"{'workload':<15} {'metric':<38} {'base median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'pairs won':>9}  verdict")
    for workload in sorted(set(base) & set(change)):
        for name in [m for m in spec if m in base[workload] and m in change[workload]]:
            b, c = base[workload][name], change[workload][name]
            m = spec[name]
            win_share, label = verdict(b, c, m["better"], m.get("bound"))
            bq, cq = quartiles(b), quartiles(c)
            print(f"{workload:<15} {name:<38} {bq[1]:<10.4g} [{bq[0]:.4g}, {bq[2]:.4g}]".ljust(91)
                  + f"{cq[1]:<10.4g} [{cq[0]:.4g}, {cq[2]:.4g}]".ljust(35)
                  + f"{win_share:>8.0%}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
