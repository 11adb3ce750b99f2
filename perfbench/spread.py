#!/usr/bin/env python3
"""Reruns every workload and prints each metric's median and quartiles.

    python3 perfbench/spread.py --runs 10 [--seconds S] [--workloads a,b] [--trace 0]

Runs alternate the workload order (forward, then backward) so slow drift of
the host does not land on one workload. Each run gets its own seed
(--seed-base + run index). For every metric it prints the median, the first
and third quartile (statistics.quantiles, n=4) and the quartile spread as a
share of the median, next to the bound in BENCHMARK.json; it also prints the
share of failed operations per run. The steadiness evidence and the bounds in
BENCHMARK.json come from this output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    for run in range(args.runs):
        order = workloads if run % 2 == 0 else list(reversed(workloads))
        for w in order:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(args.seed_base + run), "--seconds",
                   str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} run {run}: exit {proc.returncode}", flush=True)
                continue
            result = json.loads(lines[-1])
            results[w].append(result)
            values = " ".join(f"{k}={v['value']:.4g}"
                              for k, v in result["metrics"].items())
            print(f"{w} run {run} seed {args.seed_base + run}: attempted "
                  f"{result['attempted']} failed {result['failed']} correct "
                  f"{result['correct']} {values}", flush=True)

    worst = 0.0
    for w in workloads:
        runs = results[w]
        if not runs:
            continue
        print(f"\n== {w} ({len(runs)} runs)")
        print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  over bound/3" if spread > bound / 3 else ""
            print(f"{name:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {bound if bound is not None else '':>6} "
                  f"{unit}{flag}")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"failed share per run: {shares}")
    if args.trace == 0:
        print(f"\nlargest spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
