#!/usr/bin/env python3
"""Self-test of the benchmark against its declaration in BENCHMARK.json.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--seed N]

Checks that BENCHMARK.json is well formed (names match [A-Za-z0-9_.-]+ and
are unique, units are well formed, bounds are within 0..0.25), then runs
every workload with --trace 0 and --trace 1, for the shortest run
(--seconds 1, which still times three units), and checks that the result line
holds exactly the declared end-to-end or per-layer metrics, each with its
declared unit and a finite value, and that the output checks passed. The
exact counts printed by the --trace 0 run ("exact counts:") must equal the
--trace 1 run's values for them, bit for bit.
Exits non-zero on the first workload that fails, after reporting why.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SECONDS = 1


def check_declaration(bench):
    errors = []
    names = []
    for w in bench["workloads"]:
        names.append(w["name"])
    for section in ("end_to_end", "per_layer"):
        for m in bench[section]:
            names.append(m["name"])
            if not UNIT.match(m["unit"]):
                errors.append(f"{m['name']}: bad unit {m['unit']!r}")
            if m["better"] not in ("higher", "lower"):
                errors.append(f"{m['name']}: bad 'better' {m['better']!r}")
            if section == "end_to_end" and not 0 <= m["bound"] <= 0.25:
                errors.append(f"{m['name']}: bound {m['bound']} outside 0..0.25")
    for n in names:
        if not NAME.match(n):
            errors.append(f"bad name {n!r}")
    dup = {n for n in names if names.count(n) > 1}
    if dup:
        errors.append(f"names used more than once: {sorted(dup)}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in bench["end_to_end"]):
        errors.append("no setup_s end-to-end metric")
    return errors


EXACT_PREFIX = "exact counts: "


def check_run(bench, workload, trace, seed, exact):
    """Runs one workload; at --trace 0 fills `exact` from its exact-count
    line, at --trace 1 compares the per-layer metrics against it."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return [f"run.py exited with {proc.returncode}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    errors = []
    got = result["metrics"]
    if trace == 0:
        for line in lines:
            if line.startswith(EXACT_PREFIX):
                exact.update(json.loads(line[len(EXACT_PREFIX):]))
        if not exact:
            errors.append("no exact-count line")
    else:
        for name, m in exact.items():
            if got.get(name, {}).get("value") != m["value"]:
                errors.append(f"{name}: {got.get(name, {}).get('value')} at "
                              f"--trace 1, {m['value']} at --trace 0")
    if not result["correct"] or result["failed"] != 0:
        errors.append(f"output checks failed: {result['failed']} of "
                      f"{result['attempted']} units")
    declared = bench["per_layer" if trace else "end_to_end"]
    extra = set(got) - {m["name"] for m in declared}
    if extra:
        errors.append(f"undeclared metrics {sorted(extra)}")
    for m in declared:
        if m["name"] not in got:
            errors.append(f"missing metric {m['name']}")
            continue
        v = got[m["name"]]
        if v.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {v.get('unit')!r}, "
                          f"declared {m['unit']!r}")
        if not isinstance(v.get("value"), (int, float)) or \
                not math.isfinite(v["value"]):
            errors.append(f"{m['name']}: value {v.get('value')!r}")
        if "bound" in m and v.get("value") == 0:
            errors.append(f"{m['name']}: end-to-end metric reads 0")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = check_declaration(bench)
    for e in errors:
        print(f"BENCHMARK.json: {e}")
    if errors:
        return 1
    for w in bench["workloads"]:
        exact = {}
        for trace in (0, 1):
            errors = check_run(bench, w["name"], trace, args.seed, exact)
            status = "ok" if not errors else "FAIL"
            print(f"{w['name']} --trace {trace}: {status}")
            for e in errors:
                print(f"  {e}")
            if errors:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
