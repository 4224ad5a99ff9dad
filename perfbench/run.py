#!/usr/bin/env python3
"""One command for the repo's benchmark: every workload, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload etc-pacga --seed 1 --seconds 45 --trace 0

``--workload all`` runs both workloads one after another, each in
its own process, and exits nonzero if any of them failed.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Every line but the last is for people; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` next to this directory, and all
scratch files go to ``.perfbench/`` at the repository root.  Every
process the run starts is stopped and waited for before it exits
(``reap.py``).  The exit
code is 0 only when every output passed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from reap import adopt_orphans, stop_children  # noqa: E402
from stats import cpu_jiffies, host_fingerprint, peak_rss_mb  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

WORKLOADS = ("etc-pacga", "serve-mix")

#: end-to-end metric -> unit (the ``end_to_end`` list of BENCHMARK.json)
END_TO_END = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "ttt_s": "s",
    "makespan_ratio": "ratio",
    "job_p50_s": "s",
    "job_p95_s": "s",
    "jobs_per_s": "1/s",
    "sustained_jobs_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_workload(args, tracer, workdir) -> dict:
    """Returns ``{"metrics", "attempted", "failed", "errors", "notes"}``."""
    if args.workload == "serve-mix":
        import servemix

        return servemix.run(args.seed, args.seconds, tracer, workdir)
    import engines

    return engines.run(args.seed, args.seconds, tracer)


def run_all(args) -> int:
    """Every workload in its own process; a summary line per workload."""
    import subprocess

    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps(results))
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    adopt_orphans()
    try:
        return measure(args)
    finally:
        # no process of the run may outlive it, on any path out
        stop_children()


def measure(args) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: the program's sources are not at {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer(enabled=bool(args.trace))
    started = time.perf_counter()
    jiffies = cpu_jiffies()
    try:
        if args.trace:
            import layers

            out = layers.run(args.workload, args.seed, args.seconds, tracer, workdir)
        else:
            out = run_workload(args, tracer, workdir)
            out["metrics"].setdefault("peak_rss_mb", peak_rss_mb())
            out["units"] = END_TO_END
        fingerprint = host_fingerprint(args.seed)
        if args.trace:
            trace_path = os.path.join(ROOT, ".perfbench", f"trace-{args.workload}-{args.seed}.json")
            tracer.write(trace_path, fingerprint)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("host " + json.dumps(fingerprint, sort_keys=True))
    now = cpu_jiffies()
    if jiffies and now and now[1] > jiffies[1]:
        # time the hypervisor gave to other guests: a noisy neighbour shows here
        print(f"  cpu steal during the run: {100.0 * (now[0] - jiffies[0]) / (now[1] - jiffies[1]):.1f}%")
    for note in out.get("notes", ()):
        print(f"  {note}")
    if args.trace:
        print(f"  spans written to {trace_path}")
        for layer, secs in sorted(self_times(tracer.spans).items()):
            print(f"  self time {layer:<10} {secs:9.4f} s")
    for name, value in out["metrics"].items():
        if not math.isfinite(value):
            out["errors"].append(f"{name} could not be measured ({value})")
            out["metrics"][name] = None
    for error in out["errors"]:
        print(f"  FAILED: {error}")
    units = out["units"]
    for name, value in out["metrics"].items():
        print(f"  {name:<40} {value if value is not None else 'n/a':>14.6} {units[name]}")
    print(f"  wall {time.perf_counter() - started:.1f} s")
    # refused jobs count as failed operations, not as wrong outputs
    correct = not out["errors"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in out["metrics"].items()
                },
            },
            allow_nan=False,
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
