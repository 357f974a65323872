#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (the runtime libraries plus
the driver) into .bench_build/perfbench; later calls only re-check the build.
The driver runs with every MFC_* variable removed from its environment and
MFC_TRACE=0, MFC_STATS=0 set, so runtime tracing and histograms are off and
the flight recorder is at its default. Its last stdout line is the result
object; a run that crashes or times out prints an all-failed result and
exits 1. See perfbench/NOTES.md for the workloads and metrics.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("halo_fine", "migrate_churn", "btmz_lb", "chare_shm")
# Whole-run limit, below the 180 s a run may take. A run that configures a
# fresh build tree may take longer, so there the limit counts from the end
# of the build.
RUN_LIMIT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Builds the driver; returns True when this call configured a fresh tree."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"runtime sources not found under {ROOT}/src; cannot build")
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build per checkout at a time
        steps = []
        fresh = not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt"))
        if fresh:
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                log(f"build step failed: {' '.join(cmd)}")
                sys.exit(2)
    return fresh


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def fail(why):
    """An all-failed result: a crashed or timed-out run counts every check."""
    log(why)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}))
    sys.exit(1)


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    trace = args.trace == "1"

    if build():
        start = time.monotonic()

    env = {k: v for k, v in os.environ.items() if not k.startswith("MFC_")}
    env["MFC_TRACE"] = "0"
    env["MFC_STATS"] = "0"
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.json")]

    budget = RUN_LIMIT_S - (time.monotonic() - start)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, budget))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} timed out after {budget:.0f} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode == 2 and not lines:
        sys.exit(2)  # refused (too few CPUs) or bad arguments
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload} printed no result line")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected_metrics(trace):
        fail(f"result metrics {got} do not match BENCHMARK.json")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
