#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics (steadiness evidence).

Run from the repository root:

    python3 perfbench/spread.py --workloads sim_sweep,serve_paced --runs 10

Runs perfbench/run.py once per (workload, seed) with seeds 1..N (or
--first-seed..), untraced, and prints for each end-to-end metric its
median, its quartiles and the spread (Q3 - Q1) / median, the statistic
the benchmark's bounds are checked against, next to the metric's
bound from BENCHMARK.json.  Every run's JSON result is kept in the output file (default
perfbench/out/spread.json).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed with status %d"
                         % (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="sim_sweep,serve_paced,lod_stream")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(ROOT, "perfbench", "out",
                                                      "spread.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, bench["run_seconds"])
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        walls = [r["wall_s"] for r in results]
        print("%s: %d runs, %.1f-%.1f s each" % (workload, len(results),
                                               min(walls), max(walls)))
        print("  %-26s %12s %12s %12s %8s %8s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, s = spread(values)
            flag = "" if name == "setup_s" or s <= bounds[name] / 3 else "  > bound/3"
            print("  %-26s %12.6g %12.6g %12.6g %8.4f %8.3f%s" % (
                name, med, q1, q3, s, bounds[name], flag))
        sys.stdout.flush()
        record[workload] = results
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
