#!/usr/bin/env python3
"""Builds and runs the psoodb benchmark (perfbench.cpp in this directory).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the simulator and the benchmark program
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only rebuild what changed. Build output goes to standard error. The program's
standard output is passed through; its last line is the JSON result. The
script exits non-zero, without printing a result, when the build fails, the
program fails or times out, or the result line is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hicon_write", "uniform_read", "scaled_sharded")


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # A --trace 1 run measures about --seconds, then a check unit, six
    # traced-round units and the microbenchmarks, each a few seconds.
    timeout = 3 * args.seconds + 120
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out after {timeout}s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: benchmark program exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        ok = (set(result) == {"correct", "attempted", "failed", "metrics"}
              and isinstance(result["correct"], bool)
              and isinstance(result["attempted"], int)
              and result["attempted"] >= 1)
    except ValueError:
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
