#!/usr/bin/env python3
"""Record the values each seed must reproduce exactly (expected.tsv).

Run from the repository root:

    python3 perfbench/record_expected.py

Builds the perfbench program (as run.py does), runs every workload with
--exact-only 1 for seeds 0..31 and the held-out seed 9001 (once, when
the program reports that the workload's exact values do not depend on
the seed), and rewrites perfbench/expected.tsv.  Every run of the
benchmark compares its outputs and exact counts with these lines and
fails on a difference, so a change that alters images, cycles or work
counts shows even when it is consistent with itself.  Re-record only for a change that is meant to
alter them, and say so in that change.
"""

import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (build() and the paths)

SEEDS = list(range(32)) + [9001]
# Long enough for serve_paced's schedule to hold all six streams.
SECONDS = 4
HEADER = """\
# Values each (workload, seed) must reproduce bit for bit: outputs
# (sim_* ratios, output digests, per-stream checksums) and exact work
# counts.  Columns: workload, seed ("*" = every seed), name, value.
# Written by perfbench/record_expected.py; read by every run.
"""


def exact_lines(exe, workload, seed):
    done = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0", "--out-dir", run.OUT_DIR, "--expected", os.devnull,
         "--exact-only", "1"],
        cwd=run.ROOT, stdout=subprocess.PIPE, timeout=run.RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit("%s seed %d failed with status %d"
                         % (workload, seed, done.returncode))
    return done.stdout.decode().splitlines()


def main():
    exe = run.build()
    lines = []
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            recorded = exact_lines(exe, workload, seed)
            lines += recorded
            print("%s seed %d recorded" % (workload, seed), file=sys.stderr)
            if recorded[0].split()[1] == "*":
                break
    with open(run.EXPECTED, "w") as f:
        f.write(HEADER + "\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
