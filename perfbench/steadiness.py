#!/usr/bin/env python3
"""Runs the benchmark several times per workload, each with another seed,
and prints each end-to-end metric's median, quartiles and spread.

The spread is (Q3 - Q1) / median, with the quartiles of
statistics.quantiles(values, n=4); it is compared with a third of the
metric's bound from BENCHMARK.json. Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 [--workloads tables,stream]
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in bench["workloads"])
    )
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    failed_runs = 0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        hosts = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                failed_runs += 1
                continue
            result = json.loads(lines[-1])
            stamp = json.loads(lines[0])["host"]
            hosts.add((stamp["cpu_model"], stamp["nproc"]))
            if not result["correct"] or result["failed"]:
                failed_runs += 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(
                f"  {workload} seed {seed}: load1 {stamp['load1']} "
                + " ".join(f"{n}={values[n][-1]:.4g}" for n in bounds),
                file=sys.stderr,
            )
        print(f"\n### {workload} ({len(values['setup_s'])} runs, hosts {sorted(hosts)})\n")
        print("| metric | median | Q1 | Q3 | spread | bound/3 | steady |")
        print("|---|---|---|---|---|---|---|")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            steady = spread < bounds[name] / 3
            print(
                f"| {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {100 * spread:.2f}% "
                f"| {100 * bounds[name] / 3:.2f}% | {'yes' if steady else 'NO'} |"
            )
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
