#!/usr/bin/env python3
"""Builds the e2e_bench binary from source and runs one workload.

usage: python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build lives in .bench_build/e2e_bench
(configured on first use, incremental afterwards); build output goes to
stderr so that the benchmark's JSON result stays the last stdout line.
Traced runs write their Chrome trace-event JSON to
.bench_build/traces/<workload>-seed<N>.json.
"""
import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e_bench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
JOBS = str(min(4, os.cpu_count() or 1))
RUN_TIMEOUT_S = 170


def configured_source(cache):
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build():
    """Configures (if needed) and builds; returns True on success."""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache) and configured_source(cache) != BENCH_DIR:
        shutil.rmtree(BUILD_DIR)  # a build tree of another checkout
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", JOBS])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return os.path.exists(BINARY)


def run_binary(args, extra=()):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACE_DIR, f"{args.workload}-seed{args.seed}.json")]
    cmd += list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"e2e_bench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main():
    args = parse_args(sys.argv[1:])
    if not build():
        print("e2e_bench: build failed", file=sys.stderr)
        return 1
    code, out = run_binary(args)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
