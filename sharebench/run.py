#!/usr/bin/env python3
"""Builds the sharebench program from source and runs one measurement.

Usage (from the repository root):
  python3 sharebench/run.py --workload postmark --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/sharebench (default .bench_build), run
scratch (the daemons' write-ahead logs) to a per-run directory beside it
that is removed afterwards. Build output goes to stderr; the program's last
stdout line is the JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("postmark", "postmark_cluster")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("sharebench: no src/ beside sharebench/, nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "sharebench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("sharebench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "sharebench")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(os.path.join(out, "sharebench"))
    scratch = os.path.join(out, "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scratch", scratch],
            stdout=subprocess.PIPE, timeout=170)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(proc.stdout.decode())
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
