#!/usr/bin/env python3
"""Runs every workload repeatedly and reports how steady each metric is.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workloads a,b,...] [--traced]

Run from the repository root. Run i uses seed first-seed + i, and the
workload order alternates between runs (forward, then reversed). For each
workload and end-to-end metric it prints the median, the quartiles (as
Python's statistics.quantiles(values, n=4) gives them), the spread
(q3 - q1) / median, and that spread against the metric's bound from
BENCHMARK.json; "ok" means the spread is under a third of the bound. It
also prints the share of failed operations per workload. --traced adds one
traced run per workload and prints the tracing overhead: the traced
end-to-end value against the untraced median.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout[-3000:] + done.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    result = json.loads(lines[-1])
    traced = {}
    for line in lines:
        if line.startswith("traced-e2e: "):
            traced = json.loads(line[len("traced-e2e: "):])
    return result, traced


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    shares = {w: set() for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for workload in order:
            seed = args.first_seed + i
            result, _ = run_once(workload, seed, seconds, trace=False)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
            shares[workload].add((result["failed"], result["attempted"]))
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
            print(f"run {i + 1}/{args.runs} {workload} seed={seed} done",
                  file=sys.stderr, flush=True)

    print(f"{'workload':18} {'metric':16} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8} {'bound':>6} {'verdict':>8}")
    for workload in workloads:
        for name, bound in bounds.items():
            vals = values[workload][name]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            verdict = "ok" if spread < bound / 3 else (
                "in-bound" if spread <= bound else "WIDE")
            print(f"{workload:18} {name:16} {median:14.6g} {q1:14.6g} "
                  f"{q3:14.6g} {spread:8.4f} {bound:6.2f} {verdict:>8}")
            print(f"{'':35} runs: " + " ".join(f"{v:.5g}" for v in sorted(vals)))
        failed = sorted({f / a for f, a in shares[workload]})
        print(f"{workload:18} failed share(s): {failed}")

    if args.traced:
        print("\ntracing overhead (one traced run, seed first-seed):")
        for workload in workloads:
            _, traced = run_once(workload, args.first_seed, seconds, trace=True)
            for name in bounds:
                untraced = statistics.median(values[workload][name])
                if name in traced and untraced:
                    delta = (traced[name] - untraced) / untraced
                    print(f"{workload:18} {name:16} untraced={untraced:.6g} "
                          f"traced={traced[name]:.6g} ({delta:+.2%})")


if __name__ == "__main__":
    main()
