#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper64 --seed 1 --seconds 55 --trace 0

Run from the repository root. Builds the simulator library and the
lacc_perf program from source into .bench_build/perfbench (build output
goes to stderr), then runs one measurement. The last line of stdout is
the JSON result. Exits non-zero, printing no result, when the build or
the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper64", "litmus-faults")
# A run measures for --seconds, then finishes its last pass and, when
# traced, one comparison pass; this caps a run that hangs.
RUN_TIMEOUT_S = 175


def build():
    """Configure and build lacc_perf; build output goes to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD],
        ["cmake", "--build", BUILD, "--target", "lacc_perf", "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42,
                    help="workload seed (SystemConfig::seed)")
    ap.add_argument("--fault-seed", type=int, default=0xFA17,
                    help="fault-schedule seed (SystemConfig::faultSeed)")
    ap.add_argument("--seconds", type=float, default=55.0,
                    help="host seconds of passes to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run reporting the per-layer metrics")
    args = ap.parse_args()
    if args.seed < 0 or args.fault_seed < 0:
        ap.error("seeds must be non-negative")

    build()
    cmd = [os.path.join(BUILD, "lacc_perf"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--fault-seed", str(args.fault_seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: lacc_perf exited with %d" % proc.returncode)
    json.loads(lines[-1])  # the result line must be valid JSON
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
