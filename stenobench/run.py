#!/usr/bin/env python3
"""Build and run one workload of the Steno benchmark.

    python3 stenobench/run.py --workload NAME --seed N --seconds S --trace 0|1

It works from the root of the repository the script sits in: it builds
stenobench/steno_bench.exe with dune, runs it with the same arguments,
passes its output through, and prints as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}, where "metrics" holds every
end-to-end metric BENCHMARK.json names (--trace 0) or every per-layer one
(--trace 1).  The exit code is 0 only when the run finished and every
result matched the reference interpreter.
"""

import glob
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "stenobench", "steno_bench.exe")


def toolchain_env():
    """The environment with dune's directory (and so ocamlopt's) on PATH.

    Falls back to an opam switch when dune is not on PATH.  Dune's shared
    cache is disabled so the build writes only inside the checkout.
    """
    env = dict(os.environ, DUNE_CACHE="disabled")
    dune = shutil.which("dune", path=env.get("PATH"))
    if dune is None:
        prefixes = [env.get("OPAM_SWITCH_PREFIX", "")]
        prefixes += sorted(glob.glob(os.path.expanduser("~/.opam/*")))
        for prefix in prefixes:
            candidate = os.path.join(prefix, "bin", "dune")
            if prefix and os.access(candidate, os.X_OK):
                dune = candidate
                break
    if dune is None:
        sys.exit("stenobench: dune not found")
    bindir = os.path.dirname(dune)
    env["PATH"] = bindir + os.pathsep + env.get("PATH", "")
    return env, dune


def main():
    os.chdir(ROOT)
    args = sys.argv[1:]
    if "--trace" not in args:
        args += ["--trace", "0"]
    trace = args[args.index("--trace") + 1]
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["end_to_end"] if trace == "0" else spec["per_layer"]

    env, dune = toolchain_env()
    build = subprocess.run(
        [dune, "build", "--root", ".", "./stenobench/steno_bench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.exit("stenobench: build failed")

    proc = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True, env=env)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    values, attempted, failed = {}, None, None
    for line in proc.stdout.splitlines():
        fields = line.split()
        if fields[:2] == ["#", "attempted"]:
            attempted, failed = int(fields[2]), int(fields[4])
        elif len(fields) == 3 and not line.startswith("#"):
            values[fields[0]] = (float(fields[1]), fields[2])
    if attempted is None:
        sys.exit("stenobench: the run did not finish (exit %d)" % proc.returncode)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.exit("stenobench: metrics not reported: " + ", ".join(missing))
    metrics = {}
    for m in wanted:
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            sys.exit("stenobench: %s reported in %s, not %s" % (m["name"], unit, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}
    correct = proc.returncode == 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
