#!/usr/bin/env python3
"""Self-test of the e2e benchmark: a short run of every workload.

usage: python3 e2e_bench/selftest.py   (from the repository root)

For each workload listed in BENCHMARK.json it checks that
  - an untraced run exits 0, reports correct, and prints exactly the
    end_to_end metrics of BENCHMARK.json with their units;
  - a traced run does the same for the per_layer metrics;
  - a run whose checked reply has one bit flipped (--perturb-reply)
    reports correct=false and exits non-zero.
Exits non-zero on the first failed expectation.
"""
import json
import os
import sys
from types import SimpleNamespace

import run

SECONDS = 3  # long enough for >= 10 latency samples beyond p99


def fail(msg):
    print(f"selftest FAILED: {msg}")
    sys.exit(1)


def result(workload, trace, extra=()):
    args = SimpleNamespace(workload=workload, seed=1, seconds=SECONDS,
                           trace=trace)
    code, out = run.run_binary(args, extra)
    lines = out.strip().splitlines()
    if not lines:
        fail(f"{workload} trace={trace} {list(extra)}: no output")
    return code, json.loads(lines[-1])


def expect_metrics(workload, trace, declared):
    code, r = result(workload, trace)
    if code != 0 or r["correct"] is not True:
        fail(f"{workload} trace={trace}: exit {code}, correct={r['correct']}")
    got = {k: v["unit"] for k, v in r["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(want.keys() - got.keys())}, "
             f"extra {sorted(got.keys() - want.keys())}, units "
             f"{sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
    if r["attempted"] < 1 or r["failed"] != 0:
        fail(f"{workload} trace={trace}: attempted {r['attempted']}, "
             f"failed {r['failed']}")
    print(f"selftest {workload} trace={trace}: {len(got)} metrics ok")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not run.build():
        fail("build failed")
    for w in spec["workloads"]:
        name = w["name"]
        expect_metrics(name, 0, spec["end_to_end"])
        expect_metrics(name, 1, spec["per_layer"])
        code, r = result(name, 0, ["--perturb-reply"])
        if code == 0 or r["correct"] is not False:
            fail(f"{name}: a perturbed reply passed the correctness check")
        print(f"selftest {name}: perturbed reply rejected")
    print("selftest passed")


if __name__ == "__main__":
    main()
