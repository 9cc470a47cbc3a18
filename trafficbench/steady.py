#!/usr/bin/env python3
"""Run one workload N times, each with another seed, and print each metric's
median, quartiles and spread.

    python3 trafficbench/steady.py --workload hot-read --runs 10

The spread is (Q3 - Q1) / median, with the quartiles of
statistics.quantiles(values, n=4).  Each end-to-end metric's spread is shown
next to its bound from BENCHMARK.json; "ok" means the spread is below a third
of the bound.  Run it from the root of the repository.  Exits non-zero if a
run fails or reports a wrong answer.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def bounds():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        doc = json.load(f)
    return {m["name"]: m.get("bound") for m in doc.get("end_to_end", [])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1, help="seed of the first run")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.seed0 + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run failed with exit code {proc.returncode}")
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"] != 0:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} answers wrong")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        shown = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: ok, {result['attempted']} answers checked; {shown}", flush=True)
    limits = bounds()
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds} s")
    print(f"{'metric':40} {'median':>14} {'Q1':>14} {'Q3':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = limits.get(name)
        verdict = ""
        if bound is not None:
            verdict = f"{bound:6.2f} {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:40} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.3f} {verdict} {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
