#!/usr/bin/env python3
"""Builds the program and the perfbench harness from source, runs one
benchmark workload and prints its result as the last line of stdout.

    python3 perfbench/run.py --workload sim-aodv-udp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source tree. Build trees, generated inputs and scratch
files go under $CARGO_TARGET_DIR (default .bench_build) in that tree.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("sim-aodv-udp", "sim-dsr-tcp", "detect-warm")
RUN_BUDGET_S = 170  # input generation and measurement together


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no program sources under {ROOT}/src")
    tree = os.path.join(build_root, "perfbench-cmake")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(tree, "perfbench_harness")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    harness = build(build_root)
    deadline = time.monotonic() + RUN_BUDGET_S
    work_dir = os.path.join(build_root, f"perfbench-run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        if args.selftest:
            done = subprocess.run([harness, "--selftest", "--work-dir", work_dir],
                                  cwd=ROOT)
            sys.exit(done.returncode)

        input_dir = os.path.join(build_root, "perfbench-inputs")
        if args.workload == "detect-warm":
            done = subprocess.run([harness, "--generate", "--seed",
                                   str(args.seed), "--input-dir", input_dir],
                                  stdout=sys.stderr, cwd=ROOT,
                                  timeout=deadline - time.monotonic())
            if done.returncode != 0:
                fail("generating detect-warm inputs failed")

        done = subprocess.run([harness, "--workload", args.workload,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace),
                               "--work-dir", work_dir,
                               "--input-dir", input_dir],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=deadline - time.monotonic())
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            fail(f"harness exited with {done.returncode}")
        for line in lines[:-1]:
            print(line, file=sys.stderr)
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail("result line has unexpected keys")
        if set(result["metrics"]) != expected_metrics(args.trace):
            fail("harness metrics do not match BENCHMARK.json")
        print(json.dumps(result))
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
