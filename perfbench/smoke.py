#!/usr/bin/env python3
"""Tiny-size smoke check of the benchmark.

Usage, from the root of the repository:

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at smoke-test size (--tiny), with
and without tracing, and checks that each run succeeds with a correct
result whose metric names and units are exactly the ones BENCHMARK.json
lists (end_to_end for --trace 0, per_layer for --trace 1). It also checks
the benchmark's own metric catalogue (--describe) against BENCHMARK.json
and perfbench/layers.json. Exits non-zero on the first mismatch.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]


def load(rel):
    with open(os.path.join(ROOT, rel)) as f:
        return json.load(f)


def fail(msg):
    print(f"smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def units(entries):
    return {e["name"]: e["unit"] for e in entries}


def main():
    bench = load("BENCHMARK.json")
    layers = load("perfbench/layers.json")
    wanted = {0: units(bench["end_to_end"]), 1: units(bench["per_layer"])}
    workloads = [w["name"] for w in bench["workloads"]]

    described = subprocess.run(RUN + ["--describe"], cwd=ROOT, capture_output=True, text=True)
    if described.returncode != 0:
        fail(f"--describe exited {described.returncode}: {described.stderr[-2000:]}")
    cat = json.loads(described.stdout.strip().splitlines()[-1])
    if cat["workloads"] != workloads or sorted(layers["workloads"]) != sorted(workloads):
        fail(f"workloads differ: benchmark {cat['workloads']}, BENCHMARK.json {workloads}, "
             f"layers.json {sorted(layers['workloads'])}")
    if units(cat["end_to_end"]) != wanted[0]:
        fail("end-to-end catalogue differs from BENCHMARK.json")
    if units(cat["per_layer"]) != wanted[1]:
        fail("per-layer catalogue differs from BENCHMARK.json")
    if set(layers["layer_to_end_to_end"]) != set(wanted[1]):
        fail("layers.json maps a different set of per-layer metrics than BENCHMARK.json lists")

    for w in workloads:
        for trace in (0, 1):
            args = ["--workload", w, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
            p = subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True)
            if p.returncode != 0:
                fail(f"{w} trace={trace} exited {p.returncode}: {p.stderr[-2000:]}")
            result = json.loads(p.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{w} trace={trace}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{w} trace={trace}: incorrect result {result}: {p.stderr[-2000:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                fail(f"{w} trace={trace}: missing {missing}, unexpected {extra}, or a unit differs")
            print(f"smoke: ok {w} trace={trace}: {len(got)} metrics")
    print("smoke: all ok")


if __name__ == "__main__":
    main()
