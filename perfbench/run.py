#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wiki_dpli --seed 1 --seconds 25 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
as an optimised CMake build of perfbench/CMakeLists.txt, which compiles the
library from the checkout's own sources. Build output goes to stderr; the last
line of stdout is the result JSON object. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wiki_dpli", "wiki_extract", "replay_wire")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no repository sources next to {HERE}", 2)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    jobs = str(len(os.sched_getaffinity(0)))
    compile_cmd = ["cmake", "--build", build_dir, "--target", "koko_perfbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)
    return os.path.join(build_dir, "koko_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", args.trace,
         "--work-dir", work_dir],
        stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        # Show what the benchmark said, but never as a result line.
        print(run.stdout, file=sys.stderr)
        fail(f"benchmark exited with {run.returncode} and no result", 1)
    # A run with failed requests or wrong rows still reports its result
    # (correct/failed say why), then exits nonzero.
    print(run.stdout, end="")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
