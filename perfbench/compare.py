#!/usr/bin/env python3
"""Compares two sets of calm_perfbench results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result-*.json files run.py writes under .bench_out/
(copy them aside between the two builds). Results whose provenance differs
in anything but the commit -- core count, build type, compiler, or an engine
knob -- are not comparable: the script refuses them with exit code 2.
Otherwise it prints, per workload and metric, each side's median, its
quartiles, and the change of the medians.
"""

import glob
import json
import os
import statistics
import sys


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "result-*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def provenance_key(run):
    provenance = dict(run["provenance"])
    provenance.pop("commit", None)
    return json.dumps(provenance, sort_keys=True)


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    if not base or not new:
        print("compare.py: no result-*.json files", file=sys.stderr)
        return 2
    keys = sorted({provenance_key(run) for run in base + new})
    if len(keys) != 1:
        print("compare.py: refusing to compare results of different "
              "provenance:", file=sys.stderr)
        for key in keys:
            print("  " + key, file=sys.stderr)
        return 2

    table = {}
    for side, runs in (("base", base), ("new", new)):
        for run in runs:
            for name, metric in run["result"]["metrics"].items():
                cell = table.setdefault((run["workload"], name), {})
                cell.setdefault(side, []).append(metric["value"])

    print(f"{'workload':11} {'metric':32} {'base q1/med/q3':>28} "
          f"{'new q1/med/q3':>28} {'change':>8}")
    for (workload, name), sides in sorted(table.items()):
        if "base" not in sides or "new" not in sides:
            continue
        b = summary(sides["base"])
        n = summary(sides["new"])
        change = f"{(n[1] - b[1]) / b[1]:+.1%}" if b[1] else "n/a"
        print(f"{workload:11} {name:32} "
              f"{b[0]:9.4g}{b[1]:9.4g}{b[2]:9.4g}   "
              f"{n[0]:9.4g}{n[1]:9.4g}{n[2]:9.4g}   {change:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
