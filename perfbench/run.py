#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper-suite, big-shapes, alloc-pressure, daemon-mix (see
BENCHMARK.json and perfbench/METRICS.md). The script configures the CMake
package in perfbench/ into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), builds the fcc-perfbench binary (which compiles the
library from src/ with -O2 -DNDEBUG), runs it, and prints its result line
last on stdout: one JSON object with "correct", "attempted", "failed" and
"metrics". With --trace 1 the spans of the last traced pass are also
written to <build dir>/spans-<workload>.json (Chrome trace format).

Exit status: the binary's (0 all correct, 1 some unit failed or mismatched
its reference), or 2 without a result line when the build or the
benchmark's set-up fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build(package, build_dir):
    """Configures and builds fcc-perfbench; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(package), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target", "fcc-perfbench",
              "-j", jobs]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("build step failed:", err)
            return None
        if done.returncode != 0:
            log("build step failed:", " ".join(cmd))
            return None
    return build_dir / "fcc-perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    package = Path(__file__).resolve().parent
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (root / "perfbench").resolve()
    binary = build(package, build_dir)
    if binary is None:
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           args.trace]
    if args.trace == "1":
        cmd += ["--spans", str(build_dir / f"spans-{args.workload}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("fcc-perfbench timed out")
        return 2
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        log("fcc-perfbench failed with status", done.returncode)
        return 2
    print(lines[-1], flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
