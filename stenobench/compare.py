#!/usr/bin/env python3
"""Summarise benchmark runs, or compare two sets of them.

    python3 stenobench/compare.py RUNS_A [RUNS_B]

Each RUNS directory holds the captured standard output of run.py runs
(any number of workloads and seeds, trace 0).  For every (workload,
end-to-end metric) it prints each set's run count, median and quartiles
(Python's statistics.quantiles, n=4) and the spread: the distance between
the quartiles as a share of the median.

With two sets it adds a verdict per row, using the bounds in
BENCHMARK.json: "unresolved" when a set's spread is wider than the bound,
"regressed" when B's median is worse than A's by more than the bound, "ok"
otherwise.  The exit code is 1 when any row is not "ok".
"""

import json
import os
import statistics
import sys


def load(directory):
    """{workload: {metric: [values]}} from the run outputs in directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as f:
            lines = f.read().splitlines()
        host = next((l for l in lines if l.startswith("# host ")), None)
        if host is None or not lines or not lines[-1].startswith("{"):
            continue
        fields = dict(kv.split("=", 1) for kv in host.split()[2:])
        result = json.loads(lines[-1])
        by_metric = runs.setdefault(fields["workload"], {})
        for metric, m in result["metrics"].items():
            by_metric.setdefault(metric, []).append(m["value"])
    return runs


def summary(values):
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "spread": spread}


def verdict(metric, a, b):
    bound, better = metric["bound"], metric["better"]
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    change = (b["median"] - a["median"]) / a["median"]
    worse = change > bound if better == "lower" else -change > bound
    return "regressed" if worse else "ok"


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = [load(d) for d in sys.argv[1:]]
    bad = 0
    header = "%-14s %-18s" % ("workload", "metric")
    for i in range(len(sets)):
        header += " | %3s %12s %12s %12s %7s" % ("n", "median", "q1", "q3", "spread")
    print(header + (" | verdict" if len(sets) == 2 else " | spread/bound"))
    for workload in sorted(set().union(*sets)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            rows = [s.get(workload, {}).get(name) for s in sets]
            if any(not r for r in rows):
                continue
            sums = [summary(r) for r in rows]
            line = "%-14s %-18s" % (workload, name)
            for s in sums:
                line += " | %3d %12.6g %12.6g %12.6g %6.1f%%" % (
                    s["n"], s["median"], s["q1"], s["q3"], 100 * s["spread"])
            if len(sets) == 2:
                v = verdict(metric, sums[0], sums[1])
                bad += v != "ok"
                line += " | " + v
            else:
                line += " | %.2f" % (sums[0]["spread"] / metric["bound"])
            print(line)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
