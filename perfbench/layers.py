"""The traced run: per-layer metrics, timed from outside each layer.

Every number here is a span the benchmark recorded around a call into
one of the package's public functions (or the median of several such
spans), a count the program already keeps, or a timestamp from a job
record.  The same probes run on every workload, on that workload's own
ETC instance, so a layer metric can be compared across workloads: a change
should move it where the prediction table in ``predictions.json`` says
and leave it alone elsewhere.

The run has four parts, each about a quarter of ``--seconds``: the
workload's own loop untraced, then traced (their ratio is the tracing
overhead), a ``repro serve`` probe (the traced loop itself on
serve-mix) and the single-layer probes.
"""

from __future__ import annotations

import contextlib
import math
import os
import statistics
import time

import numpy as np

import engines
import servemix
from stats import backlog_series, lateness, percentile

perf = time.perf_counter

PER_LAYER = {
    "kernels.h2ll_us": "us",
    "kernels.ct_delta_us": "us",
    "kernels.recombine_us": "us",
    "kernels.mutation_us": "us",
    "kernels.select_us": "us",
    "kernels.fitness_us": "us",
    "kernels.share": "ratio",
    "parallel.shm_w1_evals_per_s": "1/s",
    "parallel.speedup": "ratio",
    "cga.step_us": "us",
    "cga.replace_rate": "ratio",
    "problems.flowshop.ls_us": "us",
    "problems.flowshop.ls_share": "ratio",
    "problems.flowshop.eval_us": "us",
    "problems.independent.ls_us": "us",
    "etc.load_s": "s",
    "heuristics.minmin_s": "s",
    "problems.flowshop.neh_s": "s",
    "runtime.build_context_s": "s",
    "runtime.checkpoint_save_s": "s",
    "runtime.checkpoint_bytes": "bytes",
    "runtime.checkpoint_share.etc-vec": "ratio",
    "runtime.checkpoint_share.etc-async": "ratio",
    "runtime.checkpoint_share.fs-sync": "ratio",
    "serve.admit_p50_s": "s",
    "serve.admit_p95_s": "s",
    "serve.queue_wait_p50_s": "s",
    "serve.queue_wait_p95_s": "s",
    "serve.service_p50_s.etc-vec": "s",
    "serve.service_p50_s.etc-async": "s",
    "serve.service_p50_s.fs-sync": "s",
    "serve.status_p50_s": "s",
    "serve.scrape_s": "s",
    "serve.backlog_max": "count",
    "serve.cache_hit_rate": "ratio",
    "serve.spool_bytes": "bytes",
    "serve.admitted_frac": "ratio",
    "loadgen.late_p95_s": "s",
    "trace.overhead_frac": "ratio",
}


def _median_span(tracer, name: str, scale: float = 1.0) -> float:
    return statistics.median(tracer.durations(name)) * scale


#: the flow-shop probes: a 4x4 ``async`` grid from a random population
FS_CONFIG = dict(problem="flowshop", grid_rows=4, grid_cols=4, seed_with_minmin=False)


def instances(workload: str, seed: int):
    """(ETC instance, flow-shop instance) the probes of a workload use."""
    from repro import make_instance
    from repro.etc.registry import load_benchmark
    from repro.problems.flowshop import load_flowshop_instance, make_flowshop

    if workload == "serve-mix":
        return (
            load_benchmark(servemix.ETC_VEC["instance"]),
            load_flowshop_instance(servemix.FS_SYNC["specs"][0]),
        )
    k = engines.instance_seed(seed, 0)
    return make_instance(512, 16, "c", "hi", "hi", seed=k), make_flowshop(50, 10, seed=k)


# ---------------------------------------------------------------------------
# kernels, parallel
# ---------------------------------------------------------------------------
def probe_kernels(tracer, inst, k: int, reps: int) -> dict:
    """µs per call of each batch kernel at P=256, and their share of a run."""
    import repro.cga.vectorized as vectorized
    from repro.cga import VectorizedSyncCGA
    from repro.cga.config import CGAConfig, StopCondition
    from repro.kernels import batch_ct_delta, resolve_batch_ops
    from repro.problems import resolve_problem

    problem = resolve_problem("independent")
    config = CGAConfig()
    engine = VectorizedSyncCGA(inst, config, rng=k, record_history=False)
    engine.run(StopCondition(max_generations=2))  # a bred population, not a random one
    bops = resolve_batch_ops(config, problem=problem)
    pop, rng = engine.pop, np.random.default_rng(k)
    P, n = pop.s.shape
    everyone = np.ones(P, dtype=bool)
    for _ in range(reps):
        with tracer.span("kernels.select"):
            a, b = bops.select(pop.fitness[engine.neighbors], rng)
        p1, p2 = engine.neighbors[np.arange(P), a], engine.neighbors[np.arange(P), b]
        child_s, child_ct = pop.s[p1], pop.ct[p1]
        mask = bops.cross_mask(P, n, rng, everyone)
        with tracer.span("kernels.recombine"):
            child_s = bops.recombine(inst, child_s, child_ct, pop.s[p2], mask)
        old_s, ct = pop.s[p1], pop.ct[p1]
        with tracer.span("kernels.ct_delta"):
            batch_ct_delta(inst, ct, old_s, child_s)
        with tracer.span("kernels.mutation"):
            bops.mutate(child_s, child_ct, inst, rng, everyone)
        with tracer.span("kernels.h2ll"):
            bops.local_search(child_s, child_ct, inst, rng, config.ls_iterations, config.ls_candidates)
        with tracer.span("kernels.fitness"):
            bops.fitness(child_s, child_ct, inst)
    out = {
        f"kernels.{name}_us": _median_span(tracer, f"kernels.{name}", 1e6)
        for name in ("h2ll", "ct_delta", "recombine", "mutation", "select", "fitness")
    }

    # share: wrap the kernels a fresh vectorized engine resolves
    spent = [0.0]

    def timed(fn):
        def call(*args, **kwargs):
            t = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[0] += perf() - t
        return call

    def resolve_timed(cfg, problem=None):
        ops = resolve_batch_ops(cfg, problem=problem)
        return type(ops)(*(timed(f) if f is not None else None for f in (
            ops.select, ops.fitness, ops.mutate, ops.local_search, ops.accept,
            ops.cross_mask, ops.recombine,
        )))

    vectorized.resolve_batch_ops = resolve_timed
    try:
        engine = VectorizedSyncCGA(inst, config, rng=k, record_history=False)
    finally:
        vectorized.resolve_batch_ops = resolve_batch_ops
    with tracer.span("cga.vectorized.run"):
        t = perf()
        engine.run(StopCondition(max_generations=20))
        wall = perf() - t
    out["kernels.share"] = spent[0] / wall
    return out


def probe_parallel(tracer, inst, k: int) -> dict:
    """shm with one worker, and shm(2) over vectorized(1) at equal work."""
    from repro import CGAConfig, ShmBlockPACGA, StopCondition, VectorizedSyncCGA

    budget = 256 * 20
    rates = {}
    for label, make in (
        ("w1", lambda: ShmBlockPACGA(inst, CGAConfig(n_threads=1), seed=k, oversubscribe=True)),
        ("w2", lambda: ShmBlockPACGA(inst, CGAConfig(n_threads=2), seed=k, oversubscribe=True)),
        ("vec", lambda: VectorizedSyncCGA(inst, CGAConfig(), rng=k, record_history=False)),
    ):
        engine = make()
        with tracer.span(f"parallel.{label}.run"):
            t = perf()
            result = engine.run(StopCondition(max_evaluations=budget))
            rates[label] = result.evaluations / (perf() - t)
    return {
        "parallel.shm_w1_evals_per_s": rates["w1"],
        "parallel.speedup": rates["w2"] / rates["vec"],
    }


# ---------------------------------------------------------------------------
# cga, problems, etc, heuristics, runtime
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def timed_local_search(problem, name: str, spent: list):
    """Temporarily route ``problem.local_searches[name]`` through a timer."""
    original = problem.local_searches[name]

    def call(*args, **kwargs):
        t = perf()
        try:
            return original(*args, **kwargs)
        finally:
            spent[0] += perf() - t

    problem.local_searches[name] = call
    try:
        yield
    finally:
        problem.local_searches[name] = original


def probe_scalar(tracer, inst, fs_inst, k: int) -> dict:
    """Scalar breeding step, replacement rate and the flow-shop LS share."""
    from repro import AsyncCGA, CGAConfig, StopCondition
    from repro.obs import Observer
    from repro.problems import resolve_problem

    config, pop = CGAConfig(), 256
    engine = AsyncCGA(inst, config, rng=k, record_history=False)
    with tracer.span("cga.async.run"):
        t = perf()
        result = engine.run(StopCondition(max_evaluations=pop))
        step_us = (perf() - t) / result.evaluations * 1e6
    obs = Observer(trace=False, grid=False, sample_every_evals=10**9)
    engine = AsyncCGA(inst, config, rng=k, record_history=False, obs=obs)
    with tracer.span("cga.async.run"):
        engine.run(StopCondition(max_evaluations=4 * pop))
    counters = obs.registry.merged().counters
    replace_rate = counters["op.replacement.successes"] / counters["op.replacement.attempts"]

    fs_config = CGAConfig(**FS_CONFIG)
    fs_pop = fs_config.grid_rows * fs_config.grid_cols
    spent = [0.0]
    with timed_local_search(resolve_problem("flowshop"), fs_config.local_search, spent):
        engine = AsyncCGA(fs_inst, fs_config, rng=k, record_history=False)
    with tracer.span("cga.async.run"):
        t = perf()
        engine.run(StopCondition(max_evaluations=fs_pop))
        ls_share = spent[0] / (perf() - t)
    return {
        "cga.step_us": step_us,
        "cga.replace_rate": replace_rate,
        "problems.flowshop.ls_share": ls_share,
    }


def probe_single_calls(tracer, workload: str, inst, fs_inst, k: int, reps: int) -> dict:
    """Instance load, seeding heuristics, build_context, scalar LS and DP."""
    from repro import CGAConfig, make_instance, min_min
    from repro.cga.local_search import h2ll
    from repro.etc.registry import load_benchmark
    from repro.problems.flowshop import flowshop_ct, fs_insertion_ls, neh_order
    from repro.runtime.context import build_context

    config = CGAConfig()
    rng = np.random.default_rng(k)
    for _ in range(reps):
        with tracer.span("etc.load"):
            if workload == "serve-mix":
                load_benchmark.__wrapped__(servemix.ETC_VEC["instance"])
            else:
                make_instance(512, 16, "c", "hi", "hi", seed=k)
        with tracer.span("heuristics.minmin"):
            schedule = min_min(inst)
        with tracer.span("problems.flowshop.neh"):
            perm = neh_order(fs_inst)
        with tracer.span("runtime.build_context"):
            build_context(inst, config, seed=k)
        s, ct = schedule.s.copy(), schedule.ct.copy()
        with tracer.span("problems.independent.ls"):
            h2ll(s, ct, inst, rng, iterations=10)
        s = perm.copy()
        ct = flowshop_ct(fs_inst, s)
        with tracer.span("problems.flowshop.ls"):
            fs_insertion_ls(s, ct, fs_inst, rng, iterations=10)
        with tracer.span("problems.flowshop.eval"):
            flowshop_ct(fs_inst, s)
    return {
        "problems.flowshop.ls_us": _median_span(tracer, "problems.flowshop.ls", 1e6),
        "problems.flowshop.eval_us": _median_span(tracer, "problems.flowshop.eval", 1e6),
        "problems.independent.ls_us": _median_span(tracer, "problems.independent.ls", 1e6),
        "etc.load_s": _median_span(tracer, "etc.load"),
        "heuristics.minmin_s": _median_span(tracer, "heuristics.minmin"),
        "problems.flowshop.neh_s": _median_span(tracer, "problems.flowshop.neh"),
        "runtime.build_context_s": _median_span(tracer, "runtime.build_context"),
    }


def probe_checkpoints(tracer, seed: int, workdir: str) -> dict:
    """Checkpoint cost of each serve job type, solved as a worker solves it."""
    import repro.runtime.checkpoint as checkpoint
    from repro.cga.config import CGAConfig, StopCondition
    from repro.problems import resolve_problem
    from repro.runtime.registry import resolve_engine

    jobs = servemix.build_jobs(seed, [("probe", len(servemix.TYPE_CYCLE), 1.0)])
    original = checkpoint.save_checkpoint
    out = {}
    for job in jobs[: len(set(servemix.TYPE_CYCLE))]:
        payload = job["payload"]
        problem = resolve_problem(payload["problem"])
        spec = payload["instance"]
        if isinstance(spec, dict):
            spec = os.path.join(workdir, "probe.inst")
            with open(spec, "w", encoding="utf-8") as fh:
                fh.write(payload["instance"]["content"])
        instance = problem.load_instance(spec)
        engine = resolve_engine(payload["engine"]).create(
            instance, CGAConfig(problem=problem.name, **payload.get("config", {})), seed=payload["seed"]
        )
        path = os.path.join(workdir, f"{job['kind']}.ckpt")
        saves = []

        def save(*args, **kwargs):
            with tracer.span(f"runtime.checkpoint.{job['kind']}"):
                t = perf()
                original(*args, **kwargs)
                saves.append(perf() - t)

        checkpoint.save_checkpoint = save
        try:
            with tracer.span("runtime.run_with_checkpoints"):
                t = perf()
                checkpoint.run_with_checkpoints(engine, StopCondition(**payload["budget"]), path)
                wall = perf() - t
        finally:
            checkpoint.save_checkpoint = original
        out[f"runtime.checkpoint_share.{job['kind']}"] = sum(saves) / wall
        if job["kind"] == "etc-vec":
            out["runtime.checkpoint_save_s"] = statistics.median(saves)
            out["runtime.checkpoint_bytes"] = float(os.path.getsize(path))
    return out


# ---------------------------------------------------------------------------
# serve, loadgen
# ---------------------------------------------------------------------------
def serve_metrics(obs: dict) -> dict:
    """Stage times from job records and the generator's clock."""
    jobs, gen = obs["jobs"], obs["gen"]
    done = [j for j in jobs if "record" in j]
    admitted = [j for j in jobs if j.get("status") == 202]
    admit = [j["admit_s"] for j in jobs]
    wait = [j["record"]["started_unix"] - j["record"]["submitted_unix"] for j in done]
    out = {
        "serve.admit_p50_s": percentile(admit, 50),
        "serve.admit_p95_s": percentile(admit, 95),
        "serve.queue_wait_p50_s": percentile(wait, 50),
        "serve.queue_wait_p95_s": percentile(wait, 95),
    }
    for kind in sorted(set(servemix.TYPE_CYCLE)):
        service = [
            j["record"]["finished_unix"] - j["record"]["started_unix"] for j in done if j["kind"] == kind
        ]
        out[f"serve.service_p50_s.{kind}"] = percentile(service, 50)
    submitted = [j["due"] for j in jobs]
    finished = [j["record"]["finished_unix"] - gen.t0_unix if "record" in j else math.inf for j in jobs]
    end = max(f for f in finished if f < math.inf)
    grid = [end * i / 500.0 for i in range(501)]
    out.update(
        {
            "serve.status_p50_s": percentile(gen.status_s, 50),
            "serve.scrape_s": percentile(gen.scrape_s, 50),
            "serve.backlog_max": float(max(backlog_series(submitted, finished, grid))),
            "serve.cache_hit_rate": obs["cache_hit_rate"],
            "serve.spool_bytes": float(obs["spool_bytes"]),
            "serve.admitted_frac": len(admitted) / len(jobs),
            "loadgen.late_p95_s": percentile(lateness(submitted, [j["sent"] for j in jobs]), 95),
        }
    )
    return out


# ---------------------------------------------------------------------------
def _loop_cost(workload: str, seed: int, seconds: float, tracer, workdir: str, first: int):
    """Mean job latency of a stretch of the workload's own loop, plus its raw data."""
    if workload == "serve-mix":
        obs = servemix.drive(seed + first, seconds, tracer, workdir, starts=1)
        lat = [servemix.job_latency(j, obs["gen"].t0_unix) for j in obs["jobs"]]
        return percentile(lat, 50), obs["errors"], len(obs["jobs"]), obs
    records, _ = engines.closed_loop(seed, seconds, tracer, first=first)
    errors = [e for r in records for e in r["errors"]]
    return statistics.fmean(r["latency"] for r in records), errors, len(records), None


def run(workload: str, seed: int, seconds: float, tracer, workdir: str) -> dict:
    k = engines.instance_seed(seed, 0)
    quarter = seconds / 4.0
    if workload == "etc-pacga":
        engines.warm_up(seed, tracer)
    tracer.enabled = False
    plain, errors_a, n_a, _ = _loop_cost(workload, seed, quarter, tracer, workdir, first=0)
    tracer.enabled = True
    traced, errors_b, n_b, serve_obs = _loop_cost(workload, seed, quarter, tracer, workdir, first=500)
    errors = errors_a + errors_b
    attempted = n_a + n_b
    if serve_obs is None:
        with tracer.span("serve.probe"):
            serve_obs = servemix.drive(seed, quarter, tracer, workdir, starts=1)
        errors += serve_obs["errors"]
        attempted += len(serve_obs["jobs"])

    inst, fs_inst = instances(workload, seed)
    metrics = {}
    metrics.update(probe_kernels(tracer, inst, k, reps=20))
    metrics.update(probe_parallel(tracer, inst, k))
    metrics.update(probe_scalar(tracer, inst, fs_inst, k))
    metrics.update(probe_single_calls(tracer, workload, inst, fs_inst, k, reps=5))
    metrics.update(probe_checkpoints(tracer, seed, workdir))
    metrics.update(serve_metrics(serve_obs))
    metrics["trace.overhead_frac"] = traced / plain
    metrics = {name: metrics[name] for name in PER_LAYER}
    return {
        "metrics": metrics,
        "units": PER_LAYER,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "notes": [f"loop stretches of {quarter:.1f} s: {n_a} untraced and {n_b} traced jobs"],
    }
