"""The in-process workload ``etc-pacga``.

It issues fixed-budget solve requests back to back (a closed loop with
one caller).  Each request gets its own instance, drawn from the
workload seed, so a run's medians average over the instance class
instead of hanging on one draw.  A request is timed in two parts:
*setup* (instance generation plus engine construction, which runs
``build_context`` and the heuristic seeding) and *run* (``engine.run``
up to the budget).  The Min-min makespan is computed again outside the
timed parts, as the reference for the time-to-target target and the
makespan ratio.
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np

from stats import percentile, sample_best, supports_percentile, time_to_target

perf = time.perf_counter

#: etc-pacga: 20 generations of the 16x16 grid
ETC_BUDGET = 256 * 20
#: etc-pacga target: 1% below the instance's Min-min makespan, which
#: every instance tried reaches within the first generations (the worst
#: of 186 ended its budget at 0.979).  Deeper targets are reached after
#: anywhere from 20 ms to never, depending on the instance drawn.
ETC_TARGET = 0.99
#: how often the sampler thread reads ``engine.pop.best()`` during a run
ETC_SAMPLE_S = 0.001


def instance_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


# ---------------------------------------------------------------------------
# one solve request
# ---------------------------------------------------------------------------
def etc_solve(seed: int, i: int, tracer) -> dict:
    from repro import CGAConfig, ShmBlockPACGA, StopCondition, make_instance, min_min
    from repro.problems import resolve_problem

    job = f"etc-pacga.{i}"
    k = instance_seed(seed, i)
    with tracer.span("solve", trace=job):
        t0 = perf()
        with tracer.span("etc.load"):
            inst = make_instance(512, 16, "c", "hi", "hi", seed=k, name=f"u_c_hihi.{k}")
        with tracer.span("parallel.shm.construct"):
            engine = ShmBlockPACGA(
                inst, CGAConfig(n_threads=2), seed=k, oversubscribe=True
            )
        t1 = perf()
        reference = min_min(inst).makespan()
        target = ETC_TARGET * reference
        samples: list[tuple[float, float]] = []
        done = threading.Event()

        sampler = threading.Thread(
            target=sample_best,
            args=(lambda: engine.pop.best()[1], done, samples, ETC_SAMPLE_S),
            daemon=True,
        )
        sampler.start()
        t2 = perf()
        try:
            with tracer.span("parallel.shm.run"):
                result = engine.run(StopCondition(max_evaluations=ETC_BUDGET))
            t3 = perf()
        finally:
            done.set()
            sampler.join()
    samples.append((t3, result.best_fitness))
    problem = resolve_problem("independent")
    return _record(
        problem, inst, result, ETC_BUDGET, setup=t1 - t0, run=t3 - t2,
        ttt=time_to_target(samples, target, t2), reference=reference,
    )


def _record(problem, inst, result, budget, *, setup, run, ttt, reference) -> dict:
    """One solve's numbers plus its correctness verdict."""
    s = np.asarray(result.best_assignment)
    errors = []
    try:
        problem.check_genome(inst, s)
    except ValueError as exc:
        errors.append(f"infeasible genome: {exc}")
    else:
        recomputed = float(np.max(problem.evaluate(inst, s)))
        if not math.isclose(recomputed, result.best_fitness, rel_tol=1e-9):
            errors.append(
                f"makespan recomputed {recomputed!r} != best_fitness {result.best_fitness!r}"
            )
    if result.evaluations != budget:
        errors.append(f"evaluations {result.evaluations} != budget {budget}")
    return {
        "setup": setup,
        "run": run,
        "latency": setup + run,
        "evals": result.evaluations,
        "ttt": ttt,
        "ratio": result.best_fitness / reference,
        "errors": errors,
    }


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------
def warm_up(seed: int, tracer) -> None:
    """One uncounted solve: imports and lazy set-up finish before timing."""
    etc_solve(seed, 999, tracer)


def closed_loop(seed: int, seconds: float, tracer, first: int = 0) -> tuple[list[dict], float]:
    """Solve requests back to back until ``seconds`` have passed."""
    records = []
    start = perf()
    i = first
    while perf() - start < seconds:
        records.append(etc_solve(seed, i, tracer))
        i += 1
    return records, perf() - start


def summarize(records: list[dict], wall: float) -> dict:
    """The end-to-end metrics of a closed-loop run."""
    ok = [r for r in records if not r["errors"]]
    lat = [r["latency"] if not r["errors"] else math.inf for r in records]
    return {
        "setup_s": percentile([r["setup"] for r in records], 50),
        "evals_per_s": sum(r["evals"] for r in ok) / sum(r["run"] for r in ok),
        "ttt_s": percentile([r["ttt"] for r in records], 50),
        "makespan_ratio": percentile([r["ratio"] for r in ok], 50),
        "job_p50_s": percentile(lat, 50),
        "job_p95_s": percentile(lat, 95),
        "jobs_per_s": len(ok) / wall,
        "sustained_jobs_per_s": len(ok) / sum(r["latency"] for r in ok),
        "ok_frac": len(ok) / len(records),
    }


def run(seed: int, seconds: float, tracer) -> dict:
    """The untraced end-to-end measurement of etc-pacga."""
    warm_up(seed, tracer)
    records, wall = closed_loop(seed, seconds, tracer)
    errors = [f"solve {i}: {e}" for i, r in enumerate(records) for e in r["errors"]]
    failed = sum(1 for r in records if r["errors"])
    metrics = summarize(records, wall) if failed < len(records) else {}
    n = len(records)
    notes = [
        f"{n} solves in {wall:.1f} s; job_p95_s from {n} samples "
        f"({'supported' if supports_percentile(n, 95) else 'fewer than 10 beyond p95'})"
    ]
    return {"metrics": metrics, "attempted": n, "failed": failed, "errors": errors, "notes": notes}
