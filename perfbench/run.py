#!/usr/bin/env python3
"""Builds and runs the GNNDrive benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload train-io --seed 1 --seconds 12 --trace 0

The first run configures and builds perfbench/ (the library from src/ plus
the benchmark) into .bench_build/perfbench; later runs rebuild only what
changed. Every run then executes the benchmark's unit tests and the
benchmark itself, whose last line of standard output is the JSON result.
Build and test output goes to standard error. The exit code is non-zero
when the build, a unit test or any output check fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 840
TEST_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion; kills and reaps it if it outlives timeout."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit(f"perfbench: {cmd[0]} timed out after {timeout}s")
        return proc.returncode


def build(root, build_dir):
    """Configures (once) and builds the benchmark; output to stderr."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (build_dir / "CMakeCache.txt").exists():
        rc = run(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, **quiet)
        if rc != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    rc = run(["cmake", "--build", str(build_dir), "-j", jobs], BUILD_TIMEOUT_S,
             **quiet)
    if rc != 0:
        sys.exit("perfbench: build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-io", "train-memtight", "serve-closed"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "core" / "pipeline.hpp").is_file():
        sys.exit("perfbench: run from the repository root; src/ is missing")
    build_dir = root / ".bench_build" / "perfbench"
    build(root, build_dir)

    test = run([str(build_dir / "bench_math_test"), "--gtest_brief=1"],
               TEST_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
    if test != 0:
        sys.exit("perfbench: benchmark unit tests failed")

    sys.stdout.flush()
    return run([str(build_dir / "gnnbench"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", args.trace], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
