#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The OCaml program in this directory
(perfbench.exe) does the work; this script builds it with dune, runs it
with a time limit and relays its output, whose last line is the JSON
result. With --trace 1 the host-time spans of the run are written to
perfbench/out/. Exits non-zero, without a result line, when the build
or the run fails, and with the program's own status when an output
check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["redis-2g-ckpt", "ckpt-storm", "restore-serve"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1:
        sys.exit("perfbench: --seconds must be at least 1")

    build = subprocess.run(
        dune() + ["build", "--root", ROOT, "./perfbench/perfbench.exe"],
        cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed ({build.returncode})")

    cmd = [os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        cmd += ["--trace-file", os.path.join(out, f"{args.workload}-seed{args.seed}-host-spans.json")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        sys.exit(f"perfbench: run failed ({run.returncode}) without a result")
    sys.stdout.write(run.stdout)
    if run.returncode != 0 or not result["correct"]:
        sys.exit(run.returncode or 1)


if __name__ == "__main__":
    main()
