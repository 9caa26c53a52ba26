#!/usr/bin/env python3
"""Interleaved parent/change pairs of the diagnosis benchmark.

    python3 bench/e2e_pairs.py --parent DIR --change DIR \
        --seeds 501,502,...,510 --held-out 4242 [--out BENCH_e2e.json]

DIR is a checkout of each side. For every workload of BENCHMARK.json and
every seed, runs `python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0` once in each checkout, N being BENCHMARK.json's run_seconds. The
two runs of a pair go back to back, and which side runs first alternates
from one pair to the next, so host drift lands on both sides alike. Held-out seeds run the
same way after the others and are listed apart.

For each workload and each end-to-end metric of BENCHMARK.json the output
records each side's median and quartiles over all pairs, its per-run values,
how many pairs the change won (ties count for neither), the relative change
of the median, and two verdicts:
  * `gain`: the change won at least nine tenths of the pairs and the medians
    differ by more than the parent's interquartile distance;
  * `within_bound`: the change's median is no worse than the parent's by more
    than the metric's bound.
Per workload it also records `failed_share`, each side's failed/attempted
share over all its runs with the verdict `no_higher` (the change's share is
no higher than the parent's), and, where the runs print per-scenario lines
(`cold`'s `  SDN1 n=.. median .. ms mean .. ms`), each run's scenario medians
plus `scenarios`, the median over runs of each scenario's median per side,
so a claim shows which scenario families moved.
Each side's `commit` is what its runs report: the git commit of a checkout,
or `src-<hash>` of src/ and perfbench/ for a copy outside git.

The file is rewritten after every pair (`complete` stays false until the last
one), so an interrupted run keeps the pairs it finished. Standard library
only; build output and the runs' own logs go to standard error.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIO_LINE = re.compile(
    r"^\s+(\S+)\s+n=(\d+)\s+median\s+([\d.]+) ms\s+mean\s+([\d.]+) ms$")


def scenario_lines(lines):
    """{scenario: {n, median_ms, mean_ms}} from a run's per-scenario lines."""
    out = {}
    for line in lines:
        m = SCENARIO_LINE.match(line)
        if m:
            out[m.group(1)] = {"n": int(m.group(2)),
                               "median_ms": float(m.group(3)),
                               "mean_ms": float(m.group(4))}
    return out


def run_once(checkout, workload, seed, seconds):
    """One untraced run; returns (environment, scenario lines, result) from
    its stdout."""
    command = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                         text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"e2e_pairs: {checkout}: {workload} seed {seed} exited "
                 f"{out.returncode}")
    lines = out.stdout.strip().splitlines()
    env = next((json.loads(l.split(" ", 1)[1]) for l in lines
                if l.startswith("environment ")), {})
    return env, scenario_lines(lines), json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def side_summary(values):
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def summarize(metric, parent_runs, change_runs):
    """Per-metric comparison over pairs (parent_runs[i], change_runs[i])."""
    lower = metric["better"] == "lower"
    wins = sum(1 for p, c in zip(parent_runs, change_runs)
               if (c < p if lower else c > p))
    ties = sum(1 for p, c in zip(parent_runs, change_runs) if c == p)
    parent = side_summary(parent_runs)
    change = side_summary(change_runs)
    delta = change["median"] - parent["median"]
    worse = delta if lower else -delta
    base = abs(parent["median"]) or 1.0
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": parent,
        "change": change,
        "pairs": len(parent_runs),
        "change_better": wins,
        "ties": ties,
        "median_delta_frac": round(delta / base, 4),
        "parent_iqr": parent["q3"] - parent["q1"],
        "gain": (wins >= 0.9 * len(parent_runs) and worse < 0
                 and abs(delta) > parent["q3"] - parent["q1"]),
        "within_bound": worse <= metric["bound"] * base,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds not used in development")
    parser.add_argument("--held-out", default="",
                        help="comma-separated held-out seeds, run last")
    parser.add_argument("--out", default=os.path.join(REPO_ROOT,
                                                      "BENCH_e2e.json"))
    args = parser.parse_args()

    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    held_out = [int(s) for s in args.held_out.split(",") if s]
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}

    report = {
        "benchmark": "perfbench end-to-end, interleaved parent/change pairs",
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "seeds": seeds,
        "held_out_seeds": held_out,
        "commits": {},
        "complete": False,
        "workloads": {},
    }
    runs = {w: {"parent": [], "change": []} for w in workloads}
    pair_index = 0
    for workload in workloads:
        for seed in seeds + held_out:
            order = ["parent", "change"] if pair_index % 2 == 0 else \
                ["change", "parent"]
            pair_index += 1
            for side in order:
                start = time.monotonic()
                env, scenarios, result = run_once(sides[side], workload, seed,
                                                  seconds)
                report["commits"][side] = env.get("commit", "unknown")
                run = {"seed": seed, "attempted": result["attempted"],
                       "failed": result["failed"],
                       "metrics": {k: v["value"]
                                   for k, v in result["metrics"].items()}}
                if scenarios:
                    run["scenarios"] = scenarios
                runs[workload][side].append(run)
                print(f"e2e_pairs: {workload} seed {seed} {side} "
                      f"({time.monotonic() - start:.0f} s)", file=sys.stderr)
            report["workloads"][workload] = summarize_workload(
                spec, runs[workload])
            with open(args.out, "w") as f:
                json.dump(report, f, indent=2)
                f.write("\n")
    report["complete"] = True
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")


def failed_share(side_runs):
    """Each side's failed/attempted share over all its runs, and whether the
    change's is no higher than the parent's."""
    share = {}
    for side in ("parent", "change"):
        attempted = sum(r["attempted"] for r in side_runs[side])
        failed = sum(r["failed"] for r in side_runs[side])
        share[side] = failed / attempted if attempted else 0.0
    share["no_higher"] = share["change"] <= share["parent"]
    return share


def scenario_summary(side_runs):
    """Per scenario: the median over runs of its per-run median, per side,
    and the relative change."""
    names = sorted({name for side in ("parent", "change")
                    for r in side_runs[side] for name in r.get("scenarios", {})})
    out = {}
    for name in names:
        medians = {side: [r["scenarios"][name]["median_ms"]
                          for r in side_runs[side]
                          if name in r.get("scenarios", {})]
                   for side in ("parent", "change")}
        if not medians["parent"] or not medians["change"]:
            continue
        parent = statistics.median(medians["parent"])
        change = statistics.median(medians["change"])
        out[name] = {"parent_median_ms": parent, "change_median_ms": change,
                     "median_delta_frac":
                         round((change - parent) / (parent or 1.0), 4)}
    return out


def summarize_workload(spec, side_runs):
    out = {"pairs": len(side_runs["parent"]),
           "seeds": [r["seed"] for r in side_runs["parent"]],
           "failed": {side: [r["failed"] for r in side_runs[side]]
                      for side in ("parent", "change")},
           "failed_share": failed_share(side_runs),
           "metrics": {}}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name] for r in side_runs[side]]
                  for side in ("parent", "change")}
        out["metrics"][name] = summarize(metric, values["parent"],
                                         values["change"])
    scenarios = scenario_summary(side_runs)
    if scenarios:
        out["scenarios"] = scenarios
    return out


if __name__ == "__main__":
    main()
