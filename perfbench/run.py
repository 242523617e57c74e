#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload sim_sweep --seed 1 --seconds 10 --trace 0

The gcc3d library and the perfbench program are built (Release, incrementally)
into $CARGO_TARGET_DIR, default .bench_build, on every call; the first
call in a checkout compiles everything.  The program then runs in a
fresh process.  Its standard output ends with the one-line JSON result;
build output goes to standard error.  Run records are written under
perfbench/out/.  The exit status is the program's: 0 when every output
check passed, 1 when one failed (including a difference from the seed's
values in perfbench/expected.tsv), 2 on a usage or build error.

GCC3D_* environment variables are removed before the program starts,
so GCC3D_SCALE / GCC3D_WORKERS cannot change a workload; every input
is fixed by the workload definition and --seed.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(BENCH_DIR, "out")
EXPECTED = os.path.join(BENCH_DIR, "expected.tsv")
WORKLOADS = ("sim_sweep", "serve_paced", "lod_stream")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure and build the program; return its path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("the gcc3d sources (%s) are missing next to perfbench/" % needed)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (step[:2], e))
        if done.returncode != 0:
            fail("build step %s failed with status %d"
                 % (step[:2], done.returncode))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    exe = build()
    command = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", OUT_DIR, "--expected", EXPECTED]
    env = {k: v for k, v in os.environ.items() if not k.startswith("GCC3D_")}
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stdout.write(done.stdout.decode("utf-8", "replace"))
    sys.stdout.flush()
    sys.exit(done.returncode if done.returncode >= 0 else 2)


if __name__ == "__main__":
    main()
