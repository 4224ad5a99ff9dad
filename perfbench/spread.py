#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload serve-mix --seeds 1-10

For every end-to-end metric it prints the median of the runs and the
quartile spread (Q3 - Q1) / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them, next to the metric's
bound in BENCHMARK.json.  Runs are sequential, so they do not compete
for the host's cores.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import quartile_spread  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="a range '1-10' or a list '1,4,7'")
    args = p.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in seed_list(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        try:
            result = json.loads(last)
        except ValueError:
            print(f"seed {seed}: exit {proc.returncode}, no result\n{proc.stderr[-2000:]}")
            return 1
        runs.append(result)
        values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']} {json.dumps(values)}", flush=True)
    print(f"\n{'metric':<36} {'median':>14} {'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        spread = quartile_spread(values) if len(values) >= 2 else float("nan")
        bound = bounds[name]
        flag = "" if abs(spread) <= bound / 3 else "  (over a third of the bound)"
        print(f"{name:<36} {statistics.median(values):>14.6g} {spread:>8.4f} {bound:>6}{flag}")
    out = os.path.join(ROOT, ".perfbench", f"spread-{args.workload}-{args.seeds}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(runs, fh)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
