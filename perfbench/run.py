#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds perfbench/ (which
builds the ads libraries from ../src with the repository's own CMake file)
into .bench_build/perfbench, then runs the benchmark binary with the same
arguments. The binary's last stdout line is the run's one-line JSON
verdict. Build output goes to stderr. Exits non-zero, printing no verdict,
if the build or the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(targets):
    """Configures and builds `targets` (both incremental); raises on failure."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets],
    ]
    for step in steps:
        subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=BUILD_TIMEOUT_S)
    return BUILD


def main(argv):
    try:
        build(["perfbench"])
    except (subprocess.SubprocessError, OSError) as e:
        print(f"perfbench build failed: {e}", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([str(BUILD / "perfbench"), *argv], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench run timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
