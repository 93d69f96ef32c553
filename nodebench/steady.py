#!/usr/bin/env python3
"""Steadiness report for the node benchmark.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload and reports, for every metric, the median and quartiles over
the runs and the spread (Q3 - Q1) / median next to the metric's bound.
A spread at or above a third of its bound is flagged, since the bound
must cover run-to-run noise with room to spare.

Run from the repository root:

    python3 nodebench/steady.py --runs 10 --workloads zipf-day,durable-ingest

Each run's JSON line, and the summary, go to .bench_build/steady/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: {lines[-1]}")
    return result, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    out_dir = os.path.join(".bench_build", "steady")
    os.makedirs(out_dir, exist_ok=True)

    summary = {}
    worst = 0.0
    for name in names:
        values = {m["name"]: [] for m in metrics}
        walls = []
        for i in range(args.runs):
            seed = args.seed_base + i
            result, wall = run_once(bench["command"], name, seed, bench["run_seconds"], args.trace)
            walls.append(wall)
            with open(os.path.join(out_dir, f"{name}-seed{seed}-trace{args.trace}.json"), "w") as f:
                json.dump(result, f)
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"\n{name}: {args.runs} runs, seeds {args.seed_base}..{args.seed_base + args.runs - 1}, "
              f"{statistics.median(walls):.1f}s per run (max {max(walls):.1f}s)")
        print(f"  {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        summary[name] = {}
        for m in metrics:
            xs = values[m["name"]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                if spread >= bound:
                    flag = "  OVER BOUND"
                elif spread >= bound / 3:
                    flag = "  over bound/3"
                if m["name"] != "setup_s":
                    worst = max(worst, spread / bound)
            print(f"  {m['name']:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
            summary[name][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                        "bound": bound, "values": xs}
    with open(os.path.join(out_dir, f"summary-trace{args.trace}.json"), "w") as f:
        json.dump(summary, f, indent=2)
    if args.trace == 0:
        print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
