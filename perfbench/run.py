#!/usr/bin/env python3
"""Builds the perfbench binary (Release) from this checkout and runs a workload.

    python3 perfbench/run.py --workload detect_540p --seed 1 --seconds 20 \
        --trace 0

Run it from the root of the repository. The build goes to
.bench_build/perfbench (configured on first use; later runs rebuild only what
changed). Build output goes to standard error; the binary's standard output,
whose last line is the result JSON, passes through unchanged, and the exit
code is the binary's.

Extra flags for the sensitivity check (see sensitivity.py):
    --inject-decode-us <us>   burn host time inside every frame decode
    --inject-launch-us <us>   burn host time after every kernel launch
"""
import argparse
import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("detect_540p", "serve_180p_faults", "fleet_shared_content")
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        # The build file appears only once a configure step has completed.
        if not any(os.path.exists(os.path.join(BUILD, name))
                   for name in ("Makefile", "build.ninja")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr,
                              stderr=sys.stderr).returncode:
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inject-decode-us", type=float, default=0.0)
    parser.add_argument("--inject-launch-us", type=float, default=0.0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [BINARY,
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--cache-dir", os.path.join(ROOT, "fdet_cache"),
               "--out-dir", os.path.join(ROOT, ".bench_build", "perfbench-out"),
               "--inject-decode-us", repr(args.inject_decode_us),
               "--inject-launch-us", repr(args.inject_launch_us)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
