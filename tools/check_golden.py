#!/usr/bin/env python3
"""Check every recorded seed of perfbench/expected.tsv against a fresh run.

Run from the repository root:

    python3 tools/check_golden.py lod_stream            # one workload
    python3 tools/check_golden.py                       # every workload

Builds the perfbench program through perfbench/run.py's build(), then,
for each seed that expected.tsv records for a workload, runs it with
--exact-only 1 (outputs and exact work counts, no timed phase) into a
temporary directory and compares the printed lines with the recorded
ones.  A workload recorded under seed "*" (its exact values do not
depend on the seed) runs once.  expected.tsv is only read.  Prints one
line per seed and a unified diff for each mismatch; exits 1 on any
difference or failed run, 0 when every seed matches.
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import record_expected  # noqa: E402  (SECONDS, the recorded run length)
import run  # noqa: E402  (build(), EXPECTED, WORKLOADS)


def recorded_lines(workload):
    """The expected.tsv lines of @p workload, grouped by seed column."""
    by_seed = {}
    with open(run.EXPECTED) as f:
        for line in f:
            fields = line.split()
            if len(fields) == 4 and fields[0] == workload:
                by_seed.setdefault(fields[1], []).append(line.rstrip("\n"))
    return by_seed


def exact_lines(exe, workload, seed, out_dir):
    """Lines the program prints for (@p workload, @p seed), or None."""
    done = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed),
         "--seconds", str(record_expected.SECONDS), "--trace", "0",
         "--out-dir", out_dir, "--expected", os.devnull,
         "--exact-only", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=run.RUN_TIMEOUT_S,
        env={k: v for k, v in os.environ.items()
             if not k.startswith("GCC3D_")})
    if done.returncode != 0:
        print("%s seed %s: run failed with status %d"
              % (workload, seed, done.returncode))
        return None
    return done.stdout.decode("utf-8", "replace").splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help="any of %s (default: all)"
                        % ", ".join(run.WORKLOADS))
    args = parser.parse_args()
    for workload in args.workloads:
        if workload not in run.WORKLOADS:
            parser.error("unknown workload %r" % workload)
    workloads = args.workloads or list(run.WORKLOADS)

    exe = run.build()
    start = time.monotonic()
    checked = mismatched = 0
    with tempfile.TemporaryDirectory(prefix="check_golden-") as out_dir:
        for workload in workloads:
            by_seed = recorded_lines(workload)
            if not by_seed:
                print("%s: no recorded seeds" % workload)
                mismatched += 1
            for seed, want in sorted(by_seed.items(),
                                     key=lambda kv: (len(kv[0]), kv[0])):
                got = exact_lines(exe, workload,
                                  0 if seed == "*" else int(seed), out_dir)
                checked += 1
                if got == want:
                    print("%s seed %s: %d values match"
                          % (workload, seed, len(want)))
                    continue
                mismatched += 1
                print("%s seed %s: MISMATCH" % (workload, seed))
                sys.stdout.writelines(
                    line + "\n" for line in difflib.unified_diff(
                        want, got or [], "expected.tsv", "run", lineterm=""))
    print("checked %d seed(s) in %.1f s: %s"
          % (checked, time.monotonic() - start,
             "all match" if mismatched == 0
             else "%d mismatch(es)" % mismatched))
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
