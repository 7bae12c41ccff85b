#!/usr/bin/env python3
"""Smoke test of the benchmark; `dune runtest` runs it.

    python3 smoke.py STENO_BENCH_EXE BENCHMARK_JSON

Runs every workload BENCHMARK.json names briefly (--smoke), untraced and
traced, in a temporary directory.  Checks that each run prints every
metric BENCHMARK.json names for its mode with the right unit, that no
operation failed, and that the traced run writes Chrome trace JSON.  Then
checks that a planted wrong answer (--plant-mismatch) is counted and makes
the run exit 1, on kernels (checked in process) and on warm-restart
(checked in a child process).  Exits 1 on the first failed check.
"""

import json
import math
import os
import subprocess
import sys
import tempfile


def fail(msg):
    print("FAIL " + msg)
    sys.exit(1)


def run(exe, cwd, workload, *args):
    cmd = [exe, "--workload", workload, "--seed", "1", "--seconds", "1", "--smoke"]
    proc = subprocess.run(cmd + list(args), cwd=cwd, stdout=subprocess.PIPE,
                          text=True, timeout=300)
    values, counts = {}, None
    for line in proc.stdout.splitlines():
        fields = line.split()
        if fields[:2] == ["#", "attempted"]:
            counts = (int(fields[2]), int(fields[4]))
        elif len(fields) == 3 and not line.startswith("#"):
            values[fields[0]] = (float(fields[1]), fields[2])
    return proc.returncode, values, counts


def check_metrics(label, values, wanted, nonzero):
    for m in wanted:
        if m["name"] not in values:
            fail("%s: %s not printed" % (label, m["name"]))
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            fail("%s: %s in %s, not %s" % (label, m["name"], unit, m["unit"]))
        if not math.isfinite(value) or (nonzero and value <= 0):
            fail("%s: %s reads %r" % (label, m["name"], value))


def main():
    exe, spec_file = os.path.abspath(sys.argv[1]), sys.argv[2]
    with open(spec_file) as f:
        spec = json.load(f)
    with tempfile.TemporaryDirectory() as cwd:
        for w in [w["name"] for w in spec["workloads"]]:
            for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
                label = "%s --trace %s" % (w, trace)
                chrome = os.path.join(cwd, "trace-%s.json" % w)
                code, values, counts = run(exe, cwd, w, "--trace", trace, "--chrome", chrome)
                if code != 0 or counts is None or counts[1] != 0:
                    fail("%s: exit %d, counts %r" % (label, code, counts))
                check_metrics(label, values, wanted, nonzero=(trace == "0"))
                if trace == "1":
                    with open(chrome) as f:
                        if not json.load(f)["traceEvents"]:
                            fail("%s: empty Chrome trace" % label)
                print("ok   " + label)
        for w in ("kernels", "warm-restart"):
            code, _, counts = run(exe, cwd, w, "--trace", "0", "--plant-mismatch")
            if code != 1 or counts is None or counts[1] < 1:
                fail("%s --plant-mismatch: exit %d, counts %r" % (w, code, counts))
            print("ok   %s --plant-mismatch" % w)


if __name__ == "__main__":
    main()
