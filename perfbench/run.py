#!/usr/bin/env python3
"""Builds and runs the LASER HTAP benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

--workload is ingest, htap_hw, tpcc_ch or all (the default). --trace 1 runs
traced trials next to untraced ones and reports per-layer metrics; --trace 0
reports the end-to-end metrics. The engine is built from ../src with the
package in this directory into $CARGO_TARGET_DIR (default .bench_build); the
databases and the span dump live there too. Build output goes to stderr, so
the last line on stdout is the benchmark's JSON result. The exit code is
nonzero when the build fails, an output check fails or a run cannot start.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "htap_hw", "tpcc_ch", "all")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "laser", "laser_db.h")):
        sys.exit("run.py: engine sources not found under %s/src" % ROOT)
    cmake_dir = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("run.py: build step failed: %s" % " ".join(step))
    return os.path.join(cmake_dir, "htap_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.join(build_dir, "run")]
    sys.stdout.flush()
    # The benchmark prints its own result line last; its exit code is ours.
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
