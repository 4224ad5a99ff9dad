"""Self-tests for the benchmark's own arithmetic and its output contract.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import ast
import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import Tracer, self_times  # noqa: E402
from stats import (  # noqa: E402
    backlog_grows,
    backlog_series,
    lateness,
    percentile,
    quartile_spread,
    sample_best,
    samples_beyond,
    supports_percentile,
    time_to_target,
)


# -- percentile choice ------------------------------------------------------
@pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 20, 99, 100, 101, 179, 180, 189, 199, 200, 1000])
@pytest.mark.parametrize("q", [50, 90, 95, 99])
def test_samples_beyond_counts_the_sorted_tail(n, q):
    xs = list(range(n))  # distinct values: "beyond" is unambiguous
    p = percentile(xs, q)
    assert samples_beyond(n, q) == sum(1 for x in xs if x > p)


def test_p95_needs_about_two_hundred_samples():
    assert not supports_percentile(100, 95)
    assert not supports_percentile(180, 95)
    assert supports_percentile(200, 95)


def test_percentile_interpolates_and_counts_misses_as_infinite():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([3.0, 1.0, 2.0], 0) == 1.0
    assert percentile([3.0, 1.0, 2.0], 100) == 3.0
    # a refused job is an infinite latency: it pushes the tail up
    assert percentile([1.0, 2.0, math.inf], 50) == 2.0
    assert percentile([1.0, math.inf], 50) == math.inf
    assert percentile([1.0, 2.0, 3.0, math.inf], 95) == math.inf
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == (q3 - q1) / q2


# -- open-loop lateness -------------------------------------------------------
def test_lateness_is_send_minus_due_and_never_negative():
    assert lateness([0.0, 1.0, 2.0], [0.25, 1.0, 1.5]) == [0.25, 0.0, 0.0]


def test_open_loop_generator_reports_its_own_lateness():
    """A submitter that blocks past the next due time runs late by that much."""
    due = [0.0, 0.01, 0.02]
    sent = []
    t0 = time.perf_counter()
    for d in due:
        wait = t0 + d - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent.append(time.perf_counter() - t0)
        time.sleep(0.05)  # a slow POST
    late = lateness(due, sent)
    assert late[0] < 0.01
    assert late[1] >= 0.04 and late[2] >= 0.08


# -- backlog growth -------------------------------------------------------------
def _queue(arrivals, service_s):
    """Finish times of a single FIFO server."""
    free = 0.0
    out = []
    for a in arrivals:
        free = max(free, a) + service_s
        out.append(free)
    return out


def test_backlog_series_counts_submitted_minus_finished():
    assert backlog_series([0, 1, 2], [0.5, 3, math.inf], [0, 0.5, 1, 2, 3, 10]) == [1, 0, 1, 2, 1, 1]


def test_backlog_steady_below_capacity():
    rng = random.Random(1)
    arrivals = sorted(rng.uniform(0, 10) for _ in range(50))  # 5/s
    finished = _queue(arrivals, 0.1)  # capacity 10/s
    assert not backlog_grows(arrivals, finished, 0.0, 10.0, slack=4)


def test_backlog_grows_above_capacity():
    rng = random.Random(2)
    arrivals = sorted(rng.uniform(0, 10) for _ in range(200))  # 20/s
    finished = _queue(arrivals, 0.1)  # capacity 10/s
    assert backlog_grows(arrivals, finished, 0.0, 10.0, slack=4)


def test_backlog_grows_when_jobs_never_finish():
    arrivals = [0.5, 1.0, 9.0]
    assert backlog_grows(arrivals, [0.6, 1.1, math.inf], 0.0, 10.0, slack=4)


# -- time to target -------------------------------------------------------------
def test_time_to_target_takes_the_first_sample_at_or_below_target():
    samples = [(1.0, 10.0), (1.5, 9.0), (2.0, 8.0), (3.0, 7.0)]
    assert time_to_target(samples, 9.0, 1.0) == 0.5
    assert time_to_target(samples, 8.5, 1.0) == 1.0
    assert time_to_target(samples, 6.0, 1.0) == math.inf


def test_sampler_reads_best_from_outside_a_blocking_run():
    """The sampler thread sees a best that improves while the caller blocks."""
    start = time.perf_counter()
    crossing = start + 0.05

    def read_best():
        return 5.0 if time.perf_counter() >= crossing else 10.0

    samples = []
    done = threading.Event()
    sampler = threading.Thread(target=sample_best, args=(read_best, done, samples, 0.001))
    sampler.start()
    time.sleep(0.1)  # stands in for engine.run()
    done.set()
    sampler.join(timeout=5.0)
    assert not sampler.is_alive()
    ttt = time_to_target(samples, 6.0, start)
    assert 0.05 <= ttt < 0.07
    assert [b for _, b in samples] == [10.0, 5.0]  # only improvements are kept


# -- spans ----------------------------------------------------------------------
def test_self_time_subtracts_children_and_shares_the_trace_id():
    tracer = Tracer(enabled=True)
    with tracer.span("solve", trace="job.1"):
        with tracer.span("etc.load") as child:
            time.sleep(0.02)
        time.sleep(0.01)
    parent = next(s for s in tracer.spans if s["name"] == "solve")
    assert child["parent"] == parent["id"] and child["trace"] == "job.1"
    times = self_times(tracer.spans)
    assert times["etc"] >= 0.02
    assert 0.01 <= times["solve"] < 0.02


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("etc.load"):
        pass
    assert tracer.spans == []


# -- the output contract ------------------------------------------------------------
def _literal(module: str, name: str):
    tree = ast.parse(open(os.path.join(HERE, module), encoding="utf-8").read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name:
            return ast.literal_eval(node.value)
    raise LookupError(name)


def test_benchmark_json_lists_exactly_the_metrics_the_runs_print():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == _literal("run.py", "END_TO_END")
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == _literal("layers.py", "PER_LAYER")
    assert [w["name"] for w in bench["workloads"]] == list(_literal("run.py", "WORKLOADS"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_rate_steps_climb_in_steps_of_at_most_a_fifth():
    """The highest sustained step can follow a capacity change within the bounds."""
    phases = _literal("servemix.py", "PHASES")
    assert phases[0][0] == "nominal"
    assert math.isclose(sum(share for _, _, share in phases), 1.0)
    rates = [rate for _, rate, _ in phases[1:]]
    assert len(rates) >= 5 and rates[0] > phases[0][1]
    assert all(1.0 < b / a <= 1.2 for a, b in zip(rates, rates[1:]))


def test_every_layer_metric_has_one_prediction():
    table = json.load(open(os.path.join(HERE, "predictions.json"), encoding="utf-8"))
    listed = [m for row in table["predictions"] for m in row["layer_metrics"]]
    assert sorted(listed) == sorted(_literal("layers.py", "PER_LAYER"))
    workloads = set(_literal("run.py", "WORKLOADS"))
    assert set(table["workloads"]) == workloads
    for row in table["predictions"]:
        assert set(row["on"]) | set(row["no_change_on"]) <= workloads
        assert not set(row["on"]) & set(row["no_change_on"])


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "etc-pacga", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_stop_children_stops_adopted_orphans():
    # a grandchild orphaned by its parent must be adopted, stopped and waited for
    script = (
        "import subprocess, sys; sys.path.insert(0, sys.argv[1]); import reap\n"
        "assert reap.adopt_orphans()\n"
        "subprocess.run(['sh', '-c', 'sleep 60 & echo $!'], stdout=open(sys.argv[2], 'w'))\n"
        "print(reap.stop_children(grace_s=2.0))\n"
    )
    pid_file = os.path.join(ROOT, ".perfbench", f"orphan-{os.getpid()}.pid")
    os.makedirs(os.path.dirname(pid_file), exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script, HERE, pid_file],
            capture_output=True, text=True, timeout=30,
        )
        orphan = int(open(pid_file, encoding="ascii").read())
    finally:
        os.remove(pid_file)
    assert proc.returncode == 0, proc.stderr
    assert orphan in json.loads(proc.stdout)
    assert not os.path.exists(f"/proc/{orphan}")


def test_a_run_leaves_no_process_behind():
    # the shm engine starts multiprocessing's resource tracker; it must
    # be gone by the time the benchmark exits
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "etc-pacga", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    import reap

    seen = set()
    while proc.poll() is None:
        seen.update(reap.children(proc.pid))
        time.sleep(0.01)
    assert proc.returncode == 0
    left = [p for p in seen if os.path.exists(f"/proc/{p}")]
    assert not left, f"processes left running: {left}"
