#!/usr/bin/env python3
"""Runs one workload N times, one seed each, and prints every metric's
median and interquartile spread (the figures the bounds come from).

    python3 servebench/repeat.py --workload NAME [--runs 10] [--first-seed 1]
                                 [--seconds 8] [--trace 0]

Run it from the root of the repository. Spread is (Q3 - Q1) / median, with
the quartiles of Python's `statistics.quantiles(values, n=4)`.
"""

import argparse
import json
import statistics
import subprocess
import sys

p = argparse.ArgumentParser()
p.add_argument("--workload", required=True)
p.add_argument("--runs", type=int, default=10)
p.add_argument("--first-seed", type=int, default=1)
p.add_argument("--seconds", type=int, default=12)
p.add_argument("--trace", default="0")
a = p.parse_args()

results = []
for i in range(a.runs):
    seed = a.first_seed + i
    cmd = [sys.executable, "servebench/run.py", "--workload", a.workload, "--seed", str(seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {out.returncode}")
    r = json.loads(lines[-1])
    results.append(r)
    shown = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
    print(f"seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']} {shown}",
          flush=True)

print(f"\n{a.workload}: {a.runs} runs")
print(f"{'metric':<30} {'median':>14} {'Q1':>14} {'Q3':>14} {'spread':>8}")
for name in results[0]["metrics"]:
    values = [r["metrics"][name]["value"] for r in results]
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("nan")
    unit = results[0]["metrics"][name]["unit"]
    print(f"{name:<30} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3f}  {unit}")
shares = {r["failed"] / r["attempted"] for r in results}
print(f"failed share per run: {sorted(shares)}; all correct: {all(r['correct'] for r in results)}")
