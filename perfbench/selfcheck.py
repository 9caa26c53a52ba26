#!/usr/bin/env python3
"""The benchmark's own fast self-check.

    python3 perfbench/selfcheck.py [--seeds 1,4242] [--seconds 2]

For every workload in BENCHMARK.json and every seed, runs the workload
briefly untraced and traced through run.py and checks that:
  * the run passes the correctness gate (correct, no failed operation);
  * every end-to-end (untraced) and per-layer (traced) metric of
    BENCHMARK.json is printed, with its unit, and nothing else is;
  * the environment line records nproc, compiler, build type, commit, seed;
  * the ledger's layers are exactly the repository modules the benchmark
    names, and the traced run wrote its spans.
Then it feeds the cold workload a deliberately wrong root-cause expectation and
checks that every diagnosis counts as failed (failed_frac = 1).
Exits non-zero on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
LAYERS = ["replay", "runtime", "provenance", "diffprov", "service", "ingest", "store"]
ENV_KEYS = ["workload", "seed", "nproc", "compiler", "build_type", "commit"]


def run(workload, seed, seconds, trace, extra=()):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               *extra]
    out = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True,
                         timeout=900, check=False)
    if out.returncode != 0:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: exit {out.returncode}\n"
                 f"{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    env = next((json.loads(l.split(" ", 1)[1]) for l in lines
                if l.startswith("environment ")), None)
    return env, json.loads(lines[-1]), lines


def check(condition, message):
    if not condition:
        sys.exit(f"FAIL {message}")


def check_metrics(label, result, declared):
    printed = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in printed]
    check(not missing, f"{label}: metrics not printed: {missing}")
    extra = sorted(set(printed) - {m["name"] for m in declared})
    check(not extra, f"{label}: metrics not in BENCHMARK.json: {extra}")
    for m in declared:
        got = printed[m["name"]]
        check(got["unit"] == m["unit"],
              f"{label}: {m['name']} unit {got['unit']!r}, want {m['unit']!r}")
        check(isinstance(got["value"], (int, float)), f"{label}: {m['name']} not a number")


def main():
    parser = argparse.ArgumentParser(description="perfbench self-check")
    parser.add_argument("--seeds", default="1,4242")
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check(sorted(m["name"].split(".")[0] for m in spec["per_layer"]
                 if m["name"].endswith(".self_ms")) == sorted(LAYERS),
          "BENCHMARK.json ledger layers differ from the benchmark's layer list")

    for seed in [int(s) for s in args.seeds.split(",")]:
        for workload in [w["name"] for w in spec["workloads"]]:
            label = f"{workload} seed {seed}"
            env, result, _ = run(workload, seed, args.seconds, 0)
            check(env is not None and all(k in env for k in ENV_KEYS),
                  f"{label}: environment line incomplete: {env}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: correctness gate: {result['attempted']} attempted, "
                  f"{result['failed']} failed")
            check_metrics(label + " untraced", result, spec["end_to_end"])
            for m in spec["end_to_end"]:
                check(result["metrics"][m["name"]]["value"] > 0,
                      f"{label}: {m['name']} reads 0")

            _, traced, _ = run(workload, seed, args.seconds, 1)
            check(traced["correct"] and traced["failed"] == 0,
                  f"{label} traced: correctness gate")
            check_metrics(label + " traced", traced, spec["per_layer"])
            spans_path = os.path.join(REPO_ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                                      "perfbench", "spans", f"{workload}-seed{seed}.json")
            with open(spans_path) as f:
                spans = json.load(f)
            layers = {s["layer"] for s in spans} - {""}
            check(spans and layers <= set(LAYERS),
                  f"{label}: span layers {sorted(layers)} not within {LAYERS}")
            print(f"ok  {label}: {result['attempted']} diagnoses correct; "
                  f"{len(spans)} spans over layers {sorted(layers)}")

    _, wrong, lines = run("cold", 1, 0.5, 0, ["--wrong-expectation"])
    check(not wrong["correct"] and wrong["failed"] == wrong["attempted"] >= 1,
          f"wrong expectation: {wrong['failed']} of {wrong['attempted']} failed")
    check(any(l.startswith("failed_frac 1 ") for l in lines),
          "wrong expectation: failed_frac does not read 1")
    print(f"ok  wrong expectation: failed_frac 1 ({wrong['failed']} of {wrong['attempted']})")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
