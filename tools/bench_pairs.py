#!/usr/bin/env python3
"""Run a perfbench workload in alternated parent/change pairs and judge the gain.

Run from anywhere, with two checkouts of the repository:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload serve_paced --seed 1 --pairs 10 --seconds 15

Each pair runs perfbench/run.py (untraced) once in each checkout; odd
pairs run the parent first, even pairs the change first.  The script
prints every run's end-to-end metrics, each side's median and
quartiles, and per metric the pairs the change won (ties count for
neither side) and whether the gain rule holds: the change wins at
least nine tenths of the pairs and its median beats the parent's by
more than the parent's interquartile range.  The metrics and which
direction is better come from the change checkout's BENCHMARK.json.

With --out, every run's JSON result and the summary are written to
that file; nothing else is written by this script (perfbench/run.py
keeps its own build and run records inside each checkout).  Exit
status: 0 when every run reported "correct": true, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(checkout, workload, seed, seconds):
    """One untraced perfbench run in @p checkout; returns its JSON result."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    lines = done.stdout.decode().strip().splitlines()
    if not lines:
        raise SystemExit("%s: run failed with status %d and no result"
                         % (checkout, done.returncode))
    result = json.loads(lines[-1])
    result["status"] = done.returncode
    result["wall_s"] = round(time.monotonic() - start, 2)
    return result


def quartiles(values):
    """(Q1, median, Q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def judge(name, better, parent, change):
    """Summary of one metric over paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gap = sign * (cmed - pmed)
    holds = wins * 10 >= 9 * len(parent) and gap > pq3 - pq1
    return {"metric": name, "better": better,
            "parent": {"q1": pq1, "median": pmed, "q3": pq3},
            "change": {"q1": cq1, "median": cmed, "q3": cq3},
            "wins": wins, "losses": losses, "pairs": len(parent),
            "gain_rule_holds": holds}


def fmt(value):
    return "%.4g" % value


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--out", help="write runs and summary as JSON here")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for side, path in sides.items():
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            parser.error("--%s %s has no perfbench/run.py" % (side, path))

    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        metrics = [(m["name"], m["better"])
                   for m in json.load(f)["end_to_end"]]

    runs = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, args.seed,
                              args.seconds)
            runs[side].append(result)
            values = " ".join(
                "%s=%s" % (name, fmt(result["metrics"][name]["value"]))
                for name, _ in metrics if name in result["metrics"])
            print("pair %d %s: correct=%s %s" % (pair, side,
                  str(result.get("correct")).lower(), values), flush=True)

    summary = []
    print("\n%s seed %d, %d pairs of %d s runs (median [Q1-Q3])"
          % (args.workload, args.seed, args.pairs, args.seconds))
    for name, better in metrics:
        if not all(name in r["metrics"] for side in runs
                   for r in runs[side]):
            continue
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        s = judge(name, better, parent, change)
        summary.append(s)
        print("%-26s parent %s [%s-%s]  change %s [%s-%s]  wins %d/%d, "
              "losses %d, gain rule %s"
              % (name, fmt(s["parent"]["median"]), fmt(s["parent"]["q1"]),
                 fmt(s["parent"]["q3"]), fmt(s["change"]["median"]),
                 fmt(s["change"]["q1"]), fmt(s["change"]["q3"]), s["wins"],
                 s["pairs"], s["losses"],
                 "holds" if s["gain_rule_holds"] else "does not hold"))

    all_correct = all(r.get("correct") is True for side in runs
                      for r in runs[side])
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "pairs": args.pairs, "seconds": args.seconds,
                       "runs": runs, "summary": summary}, f, indent=1)
    if not all_correct:
        print("some run reported correct != true", file=sys.stderr)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
