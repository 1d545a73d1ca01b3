#!/usr/bin/env python3
r"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload window-splice --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (library + perfbench binary, Release) into
.bench_build/; later calls only let the build system check that it is up to
date. Build output goes to stderr, so the last line of stdout is the
binary's JSON result. Exits non-zero, without a result, when the build or
the run fails.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build(root: str) -> str:
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "perfbench")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        binary = build(root)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
