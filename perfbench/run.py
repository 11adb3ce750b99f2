#!/usr/bin/env python3
"""Builds the repository benchmark and runs one workload.

    python3 perfbench/run.py --workload analytics --seed 1 --seconds 10 --trace 0

The engine library and the perfbench binary are built from source with
CMake (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, under the repository root. The binary's last line of
standard output is the JSON result; its report goes to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analytics", "ingest")


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(out, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
