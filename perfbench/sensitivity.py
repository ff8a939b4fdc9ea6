#!/usr/bin/env python3
"""Sensitivity check: proves the benchmark sees a known host-time change.

    python3 perfbench/sensitivity.py [--seed 7] [--seconds 20]

Injects a busy-wait from benchmark code only, in two places, and compares
each workload's untraced run against a run without it (same seed):

  * inside the forwarding FrameSource::decode (--inject-decode-us): must
    lower host_frames_per_s on fleet_shared_content by more than its bound,
    and leave detect_540p within its bound, since that workload never
    decodes through a FrameSource;
  * inside a ScopedKernelProfileHook callback, once per kernel launch
    (--inject-launch-us): must lower host_frames_per_s on detect_540p and
    serve_180p_faults by more than its bound.

Every modeled metric, recall and precision must stay identical under both
delays. Exits 0 when every expectation holds, 1 otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIMULATED = ("modeled_detect_ms_p50", "modeled_latency_ms_p50",
             "modeled_latency_ms_p99", "served_ratio", "deadline_met_ratio",
             "recall", "precision")
# Delays sized to roughly double each workload's host time: ~10k decodes
# per 5-6 s fleet pass; ~100 launches per 3-4 s 540p frame; ~75 launches
# per 0.7-0.9 s 180p frame.
DECODE_US = 600.0
LAUNCH_US = {"detect_540p": 40000.0, "serve_180p_faults": 10000.0}


def run(workload, seed, seconds, decode_us=0.0, launch_us=0.0):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0",
               "--inject-decode-us", str(decode_us),
               "--inject-launch-us", str(launch_us)]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("%s run was not correct" % workload)
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bound = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    fps_bound = bound["host_frames_per_s"]

    cases = [  # (workload, delay kind, must host_frames_per_s move?)
        ("fleet_shared_content", "decode", True),
        ("detect_540p", "decode", False),
        ("detect_540p", "launch", True),
        ("serve_180p_faults", "launch", True),
    ]
    baseline = {}
    ok = True
    for workload, kind, must_move in cases:
        if workload not in baseline:
            baseline[workload] = run(workload, args.seed, args.seconds)
        base = baseline[workload]
        if kind == "decode":
            delayed = run(workload, args.seed, args.seconds,
                          decode_us=DECODE_US)
        else:
            delayed = run(workload, args.seed, args.seconds,
                          launch_us=LAUNCH_US[workload])
        drop = 1.0 - delayed["host_frames_per_s"] / base["host_frames_per_s"]
        moved = drop > fps_bound
        same = all(delayed[m] == base[m] for m in SIMULATED)
        passed = moved == must_move and same
        ok = ok and passed
        print("%-22s %-6s delay: host_frames_per_s %.4g -> %.4g (drop %+.1f%%, "
              "bound %.0f%%, expected %s); simulated metrics %s: %s"
              % (workload, kind, base["host_frames_per_s"],
                 delayed["host_frames_per_s"], 100 * drop, 100 * fps_bound,
                 "beyond" if must_move else "within",
                 "identical" if same else "CHANGED",
                 "PASS" if passed else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
