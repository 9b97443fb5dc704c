#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

Usage, from the root of a checkout:

    python3 perfbench/spread.py

Runs the benchmark once for each of seeds 1 to 10 on every workload at
--trace 0, interleaving the workloads so each one's runs spread over the
whole set. For each end-to-end metric it prints the median of the ten runs
and the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound in BENCHMARK.json.

It also compares the exact per-layer counts that each run prints on its
"exact counts:" line across sets. Each set's counts are saved to
spread_exact.json in the build directory ($CARGO_TARGET_DIR, default
.bench_build). If that file already holds an earlier set's counts, every
count of every workload and seed must equal it. The script exits non-zero
if a run fails, an output check fails or a count differs.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
EXACT_PREFIX = "exact counts: "


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    saved = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"),
                         "spread_exact.json")

    values = {w: {} for w in workloads}
    exact = {}
    ok = True
    for seed in SEEDS:
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: run.py exited with {proc.returncode}")
                return 1
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{w} seed {seed}: output checks failed")
                ok = False
            for line in lines:
                if line.startswith(EXACT_PREFIX):
                    counts = json.loads(line[len(EXACT_PREFIX):])
                    exact[f"{w}/{seed}"] = {n: m["value"]
                                            for n, m in counts.items()}
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: wall_s "
                  f"{result['metrics']['wall_s']['value']:.4f}", flush=True)

    print(f"{'workload':16} {'metric':14} {'median':>14} {'iqr/med':>8} "
          f"{'bound':>6}")
    for w in workloads:
        for m in bench["end_to_end"]:
            v = values[w][m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            print(f"{w:16} {m['name']:14} {med:14.6g} "
                  f"{(q[2] - q[0]) / med:8.4f} {m['bound']:6.2f}")

    if os.path.exists(saved):
        with open(saved) as f:
            earlier = json.load(f)
        differ = [f"{run} {name}: {value} here, {earlier[run][name]} before"
                  for run, counts in exact.items() if run in earlier
                  for name, value in counts.items()
                  if earlier[run].get(name) != value]
        compared = sum(len(c) for r, c in exact.items() if r in earlier)
        print(f"exact counts: {compared} compared with the earlier set, "
              f"{len(differ)} differ")
        for d in differ:
            print(f"  {d}")
        ok = ok and not differ
    with open(saved, "w") as f:
        json.dump(exact, f, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
