#!/usr/bin/env python3
"""Builds the benchmark binary and runs one workload of the repository
benchmark.

    python3 perfbench/run.py --workload rounds|serve|jobs --seed N \
        --seconds S --trace 0|1

Run from the root of an s2c2 checkout. The first run configures and
builds perfbench/CMakeLists.txt (the s2c2 library plus the benchmark
binary, Release) into $CARGO_TARGET_DIR, default .bench_build; later runs
only rebuild what changed. Build output goes to stderr.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: with --trace 0 every end_to_end metric of
BENCHMARK.json, with --trace 1 every per_layer metric, each as
{"value": v, "unit": u}. A per-layer metric whose layer the workload does
not call reads 0. A traced run also writes its spans as trace-event JSON
under <build dir>/spans/.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("rounds", "serve", "jobs")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(f"{needed} is missing at {ROOT}: the benchmark builds the "
                "s2c2 library from the checkout's source")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    with open(os.path.join(build_dir, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per dir
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                die("build timed out", 1)
            if done.returncode != 0:
                die(f"build step failed: {' '.join(step)}", 1)
    binary = os.path.join(build_dir, "s2c2_perfbench")
    if not os.path.exists(binary):
        die(f"build produced no {binary}", 1)
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        die("--seed must be >= 0 and --seconds in (0, 3600]")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {spec_path}: {e}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.trace.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"workload {args.workload} ran past {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        die(f"benchmark binary exited with {done.returncode}", 1)

    result = json.loads(lines[-1])
    measured = result["metrics"]
    unknown = sorted(set(measured) - {m["name"] for m in wanted})
    if unknown:
        die(f"binary reported metrics BENCHMARK.json does not list: {unknown}",
            1)
    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            value = measured[m["name"]]
        elif args.trace:
            value = 0.0  # the workload makes no call into this layer
        else:
            die(f"workload {args.workload} did not measure {m['name']}", 1)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print("\n".join(lines[:-1]))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
