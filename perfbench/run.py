#!/usr/bin/env python3
"""Build and run the perfbench host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_year --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles the libraries from src/)
into $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
binary once. Build output goes to stderr, so the last stdout line is the
binary's result object. Exits non-zero, without printing a result, when
the build or the run fails.
"""

import argparse
import os
import subprocess
import sys


def run_build_step(cmd):
    """Run one cmake step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json; perfbench rejects others")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(min(os.cpu_count() or 1, 4))

    if not run_build_step(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]):
        return 1
    if not run_build_step(["cmake", "--build", build, "-j", jobs, "--target", "perfbench"]):
        return 1

    cmd = [os.path.join(build, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return proc.returncode
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
