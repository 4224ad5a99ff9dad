"""The ``serve-mix`` workload: a ``repro serve`` subprocess under open-loop load.

Load comes from this one process over at most two connections at a
time: a submitter thread sends ``POST /jobs`` on a seeded open-loop
schedule, and a reader thread polls ``GET /jobs/<id>`` and scrapes
``GET /metrics`` beside it.  The schedule has a nominal phase at about
half the service's capacity on a 2-core host, then fixed rate steps
10% apart that run from below that capacity to well past it, so
the highest step the service sustains follows its capacity.  Within a
phase, arrivals are a Poisson process conditioned on
its job count (sorted uniform times), so the offered rate is exact and
only the timing varies with the seed.

Job latency is taken from when the job was *due*, to the
``finished_unix`` stamp of its record, so a stalled generator or
service delays every later job's clock too.  Stage times come from the
job records and the generator's clock; nothing is read from the
``/metrics`` histograms.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

from stats import backlog_grows, lateness, peak_rss_mb, percentile, supports_percentile

perf = time.perf_counter

WORKERS = 2
#: deep enough that the steps past capacity queue up instead of being
#: refused: a refusal counts as a failed operation
QUEUE_LIMIT = 1024
#: job_p95_s limit for a rate step to count as sustained
LATENCY_LIMIT_S = 1.5
#: (name, rate in jobs/s, share of the measured seconds).  The service
#: completed 22-38 jobs/s before its backlog grew, in ramps over the
#: same job mix on a 2-core host; the nominal rate is about half of that
PHASES = (
    ("nominal", 13.0, 0.44),
    ("step1", 20.0, 0.07),
    ("step2", 22.0, 0.07),
    ("step3", 24.2, 0.07),
    ("step4", 26.6, 0.07),
    ("step5", 29.3, 0.07),
    ("step6", 32.2, 0.07),
    ("step7", 35.4, 0.07),
    ("step8", 39.0, 0.07),
)
#: job type of job j is TYPE_CYCLE[j % len(TYPE_CYCLE)]: fixed shares
TYPE_CYCLE = ("etc-vec", "etc-async", "fs-sync", "etc-vec", "etc-async")
#: the first SAMPLE_PER_TYPE jobs of each type are solved again in-process
SAMPLE_PER_TYPE = 2
POLL_EVERY_S = 0.1
SCRAPE_EVERY_S = 1.0
SETUP_STARTS = 5

ETC_VEC = {"instance": "u_c_hihi.0", "generations": 2}
ETC_ASYNC = {"ntasks": 128, "nmachines": 8, "grid": 8, "cap": 256, "target": 0.99}
FS_SYNC = {"specs": ("fs20x5.0", "fs20x5.1"), "grid": 4, "generations": 1}


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------
def request(base: str, method: str, path: str, payload=None, timeout: float = 30.0):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def start_server(spool: str, log_path: str) -> tuple[subprocess.Popen, str, float]:
    """Start ``repro serve``; returns (process, base url, seconds to healthy)."""
    t0 = perf()
    log = open(log_path, "w", encoding="utf-8")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--workers", str(WORKERS), "--queue-limit", str(QUEUE_LIMIT), "--spool", spool,
        ],
        stdout=log,
        stderr=subprocess.STDOUT,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    log.close()
    try:
        base = None
        deadline = t0 + 60.0
        while perf() < deadline and proc.poll() is None:
            if base is None:
                with open(log_path, encoding="utf-8") as fh:
                    for line in fh:
                        if "serving on" in line:
                            base = line.split("serving on", 1)[1].strip()
            if base is not None:
                try:
                    status, body = request(base, "GET", "/healthz", timeout=5.0)
                except OSError:
                    status = None
                if status == 200 and json.loads(body)["workers_alive"] == WORKERS:
                    return proc, base, perf() - t0
            time.sleep(0.005)
        raise RuntimeError(f"repro serve did not become healthy (see {log_path})")
    except BaseException:
        stop_server(proc)
        raise


def stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM (graceful drain), then SIGKILL if it does not exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10.0)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
def _etc_inline(rng_seed: int):
    from repro import make_instance, min_min

    inst = make_instance(
        ETC_ASYNC["ntasks"], ETC_ASYNC["nmachines"], "c", "hi", "hi", seed=rng_seed
    )
    lines = [f"{inst.ntasks} {inst.nmachines}"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in inst.etc]
    return "\n".join(lines) + "\n", min_min(inst).makespan()


def build_jobs(seed: int, phases) -> list[dict]:
    """Every job of a run: type, payload, due time and reference makespan."""
    from repro import min_min
    from repro.etc.registry import load_benchmark
    from repro.problems.flowshop import flowshop_ct, load_flowshop_instance, neh_order

    rng = random.Random(seed)
    refs = {ETC_VEC["instance"]: min_min(load_benchmark(ETC_VEC["instance"])).makespan()}
    for spec in FS_SYNC["specs"]:
        inst = load_flowshop_instance(spec)
        refs[spec] = float(flowshop_ct(inst, neh_order(inst)).max())
    jobs = []
    t = 0.0
    for name, rate, length in phases:
        n = max(1, round(rate * length))
        for due in sorted(t + rng.uniform(0.0, length) for _ in range(n)):
            j = len(jobs)
            kind = TYPE_CYCLE[j % len(TYPE_CYCLE)]
            job_seed = seed * 100_000 + j
            if kind == "etc-vec":
                payload = {
                    "problem": "independent",
                    "instance": ETC_VEC["instance"],
                    "engine": "vectorized",
                    "budget": {"max_generations": ETC_VEC["generations"]},
                    "seed": job_seed,
                }
                ref, target, evals = refs[ETC_VEC["instance"]], None, 256 * ETC_VEC["generations"]
            elif kind == "etc-async":
                content, ref = _etc_inline(job_seed)
                target = ETC_ASYNC["target"] * ref
                payload = {
                    "problem": "independent",
                    "instance": {"name": f"u_c_hihi-{job_seed}", "content": content},
                    "engine": "async",
                    "config": {"grid_rows": ETC_ASYNC["grid"], "grid_cols": ETC_ASYNC["grid"]},
                    "budget": {"max_evaluations": ETC_ASYNC["cap"], "target_fitness": target},
                    "seed": job_seed,
                }
                evals = ETC_ASYNC["cap"]
            else:
                spec = FS_SYNC["specs"][(j // len(TYPE_CYCLE)) % len(FS_SYNC["specs"])]
                grid = FS_SYNC["grid"]
                payload = {
                    "problem": "flowshop",
                    "instance": spec,
                    "engine": "sync",
                    "config": {"grid_rows": grid, "grid_cols": grid},
                    "budget": {"max_generations": FS_SYNC["generations"]},
                    "seed": job_seed,
                }
                ref, target, evals = refs[spec], None, grid * grid * FS_SYNC["generations"]
            jobs.append(
                {
                    "index": j, "phase": name, "kind": kind, "due": due, "payload": payload,
                    "reference": ref, "target": target, "evals": evals,
                }
            )
        t += length
    return jobs


# ---------------------------------------------------------------------------
# the load generator
# ---------------------------------------------------------------------------
class LoadGen:
    """Open-loop submitter plus a status/metrics reader, two connections."""

    def __init__(self, base: str, jobs: list[dict], tracer):
        self.base = base
        self.jobs = jobs
        self.tracer = tracer
        self.ops = 0
        self.op_errors: list[str] = []
        self.status_s: list[float] = []
        self.scrape_s: list[float] = []
        self._lock = threading.Lock()
        self._accepted: list[str] = []
        self._done = threading.Event()

    def run(self) -> None:
        self.t0 = perf()
        self.t0_unix = time.time()
        reader = threading.Thread(target=self._read_loop, daemon=True)
        reader.start()
        try:
            self._submit_loop()
        finally:
            self._done.set()
            reader.join()

    def _submit_loop(self) -> None:
        for job in self.jobs:
            wait = self.t0 + job["due"] - perf()
            if wait > 0:
                time.sleep(wait)
            job["sent"] = perf() - self.t0
            with self.tracer.span("serve.admit", trace=f"job.{job['index']}"):
                try:
                    status, body = request(self.base, "POST", "/jobs", job["payload"])
                except OSError as exc:
                    status, body = None, str(exc).encode()
            job["admit_s"] = perf() - self.t0 - job["sent"]
            job["status"] = status
            if status == 202:
                job["id"] = json.loads(body)["id"]
                with self._lock:
                    self._accepted.append(job["id"])

    def _read_loop(self) -> None:
        rng = random.Random(len(self.jobs))
        next_scrape = perf()
        while not self._done.is_set():
            with self._lock:
                recent = self._accepted[-8:]
            if recent:
                self._timed("GET", f"/jobs/{rng.choice(recent)}", self.status_s, "serve.status")
            if perf() >= next_scrape:
                self._timed("GET", "/metrics", self.scrape_s, "serve.scrape")
                next_scrape += SCRAPE_EVERY_S
            self._done.wait(POLL_EVERY_S)

    def _timed(self, method: str, path: str, into: list, span: str) -> None:
        t = perf()
        with self.tracer.span(span):
            try:
                status, _ = request(self.base, method, path)
            except OSError as exc:
                status = exc
        self.ops += 1
        if status != 200:
            self.op_errors.append(f"{method} {path} -> {status}")
        else:
            into.append(perf() - t)


def wait_terminal(base: str, ids: set, timeout_s: float) -> dict[str, dict]:
    """Job records once every id is done/failed (or the timeout passed)."""
    deadline = perf() + timeout_s
    while True:
        status, body = request(base, "GET", "/jobs")
        records = {r["id"]: r for r in json.loads(body)["jobs"]} if status == 200 else {}
        pending = [i for i in ids if records.get(i, {}).get("state") not in ("done", "failed")]
        if not pending or perf() > deadline:
            return records
        time.sleep(0.2)


def cache_hit_rate(metrics_text: str) -> float:
    """Instance-cache hits / lookups summed over workers (gauges, not timings)."""
    hits = misses = 0.0
    for line in metrics_text.splitlines():
        if line.startswith("repro_serve_cache_instances_w"):
            name, value = line.rsplit(" ", 1)
            if name.endswith("_hits"):
                hits += float(value)
            elif name.endswith("_misses"):
                misses += float(value)
    return hits / (hits + misses) if hits + misses else math.nan


def spool_bytes(spool: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(spool):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, f))
            except OSError:
                pass
    return total


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------
def solve_in_process(payload: dict, workdir: str) -> float:
    """best_fitness of the same spec and seed solved in this process."""
    from repro.cga.config import CGAConfig, StopCondition
    from repro.problems import resolve_problem
    from repro.runtime.registry import resolve_engine

    problem = resolve_problem(payload["problem"])
    inst_spec = payload["instance"]
    if isinstance(inst_spec, dict):
        path = os.path.join(workdir, "inline.inst")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inst_spec["content"])
        inst_spec = path
    instance = problem.load_instance(inst_spec)
    config = CGAConfig(problem=problem.name, **payload.get("config", {}))
    engine = resolve_engine(payload["engine"]).create(instance, config, seed=payload["seed"])
    return engine.run(StopCondition(**payload["budget"])).best_fitness


def check_jobs(jobs: list[dict], records: dict, workdir: str) -> list[str]:
    """Lost, failed and wrong-result jobs, one message each."""
    errors = []
    sampled: dict[str, int] = {}
    for job in jobs:
        if job.get("status") != 202:
            continue
        rec = records.get(job["id"])
        if rec is None or rec["state"] not in ("done", "failed"):
            errors.append(f"job {job['index']} lost (state {rec and rec['state']})")
            continue
        if rec["state"] == "failed":
            errors.append(f"job {job['index']} failed: {rec.get('error')}")
            continue
        result = rec["result"]
        job["record"] = rec
        if job["target"] is None:
            if result["evaluations"] != job["evals"]:
                errors.append(f"job {job['index']}: {result['evaluations']} evaluations != budget {job['evals']}")
        elif result["evaluations"] > job["evals"] or (
            result["best_fitness"] > job["target"] and result["evaluations"] != job["evals"]
        ):
            errors.append(f"job {job['index']}: stopped at {result['evaluations']} evaluations off target")
        if sampled.get(job["kind"], 0) < SAMPLE_PER_TYPE:
            sampled[job["kind"]] = sampled.get(job["kind"], 0) + 1
            local = solve_in_process(job["payload"], workdir)
            if local != result["best_fitness"]:
                errors.append(
                    f"job {job['index']} ({job['kind']}): served best {result['best_fitness']!r} "
                    f"!= in-process {local!r}"
                )
    return errors


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------
def measure_setup(workdir: str, starts: int) -> tuple[list[float], subprocess.Popen, str, str]:
    """Start the server ``starts`` times; the last one stays up."""
    times = []
    for k in range(starts):
        spool = os.path.join(workdir, f"spool{k}")
        proc, base, secs = start_server(spool, os.path.join(workdir, f"serve{k}.log"))
        times.append(secs)
        if k < starts - 1:
            stop_server(proc)
    return times, proc, base, spool


def drive(seed: int, seconds: float, tracer, workdir: str, starts: int = SETUP_STARTS) -> dict:
    """Set up, warm up, run the schedule, check; returns raw observations."""
    phases = [(name, rate, share * seconds) for name, rate, share in PHASES]
    jobs = build_jobs(seed, phases)
    setup, proc, base, spool = measure_setup(workdir, starts)
    try:
        # two jobs of each type first, so caches fill before timing
        warm = build_jobs(seed + 7919, [("warm", 2 * len(TYPE_CYCLE), 1.0)])
        warm_ids = set()
        for job in warm:
            status, body = request(base, "POST", "/jobs", job["payload"])
            if status == 202:
                warm_ids.add(json.loads(body)["id"])
        wait_terminal(base, warm_ids, 60.0)
        gen = LoadGen(base, jobs, tracer)
        gen.run()
        accepted = {j["id"] for j in jobs if j.get("status") == 202}
        records = wait_terminal(base, accepted, 60.0)
        status, text = request(base, "GET", "/metrics")
        hit_rate = cache_hit_rate(text.decode()) if status == 200 else math.nan
        nbytes = spool_bytes(spool)
    finally:
        stop_server(proc)
    errors = check_jobs(jobs, records, workdir) + gen.op_errors
    return {
        "jobs": jobs, "gen": gen, "setup": setup, "errors": errors, "phases": phases,
        "cache_hit_rate": hit_rate, "spool_bytes": nbytes,
    }


def job_latency(job: dict, t0_unix: float) -> float:
    """Due-to-finished seconds; inf for a refused, failed or lost job."""
    rec = job.get("record")
    if rec is None:
        return math.inf
    return rec["finished_unix"] - (t0_unix + job["due"])


def phase_stats(obs: dict) -> list[dict]:
    """Per phase: latencies, completion rate, p95 and backlog verdict."""
    gen = obs["gen"]
    out = []
    start = 0.0
    for name, rate, length in obs["phases"]:
        jobs = [j for j in obs["jobs"] if j["phase"] == name]
        lat = [job_latency(j, gen.t0_unix) for j in jobs]
        done = [j for j in jobs if "record" in j]
        end_unix = max((j["record"]["finished_unix"] for j in done), default=math.inf)
        span = end_unix - (gen.t0_unix + start)
        submitted = [j["due"] for j in obs["jobs"]]
        finished = [
            j["record"]["finished_unix"] - gen.t0_unix if "record" in j else math.inf
            for j in obs["jobs"]
        ]
        grows = backlog_grows(submitted, finished, start, start + length, slack=2 * WORKERS)
        p95 = percentile(lat, 95)
        out.append(
            {
                "name": name, "rate": rate, "n": len(jobs), "lat": lat,
                "completed_per_s": len(done) / span if span > 0 else 0.0,
                "p95": p95, "grows": grows,
                "sustained": p95 <= LATENCY_LIMIT_S and not grows and len(done) == len(jobs),
            }
        )
        start += length
    return out


def run(seed: int, seconds: float, tracer, workdir: str) -> dict:
    """The untraced end-to-end measurement of serve-mix."""
    obs = drive(seed, seconds, tracer, workdir)
    gen, jobs = obs["gen"], obs["jobs"]
    phases = phase_stats(obs)
    nominal = phases[0]
    done = [j for j in jobs if "record" in j]
    busy = sum(j["record"]["finished_unix"] - j["record"]["started_unix"] for j in done)
    target_jobs = [j for j in jobs if j["phase"] == "nominal" and j["target"] is not None]
    ttt = [
        job_latency(j, gen.t0_unix)
        if "record" in j and j["record"]["result"]["best_fitness"] <= j["target"]
        else math.inf
        for j in target_jobs
    ]
    passing = [p for p in phases if p["sustained"]]
    refused = sum(1 for j in jobs if j.get("status") != 202)
    attempted = len(jobs) + gen.ops
    failed = refused + len(obs["errors"])
    metrics = {
        "setup_s": statistics.median(obs["setup"]),
        "evals_per_s": sum(j["record"]["result"]["evaluations"] for j in done) / busy,
        "ttt_s": percentile(ttt, 50),
        "makespan_ratio": statistics.fmean(
            j["record"]["result"]["best_fitness"] / j["reference"] for j in done
        ),
        "job_p50_s": percentile(nominal["lat"], 50),
        "job_p95_s": nominal["p95"],
        "jobs_per_s": nominal["completed_per_s"],
        "sustained_jobs_per_s": (passing[-1] if passing else nominal)["completed_per_s"],
        "ok_frac": 1.0 - failed / attempted,
        # the service's processes only: the load generator's own memory
        # (job records, in-process check solves) is not the program's
        "peak_rss_mb": peak_rss_mb(include_self=False),
    }
    late = lateness([j["due"] for j in jobs], [j["sent"] for j in jobs])
    notes = [
        f"{p['name']}: {p['rate']:g} jobs/s offered, {p['n']} jobs, p95 {p['p95']:.3f} s, "
        f"completed {p['completed_per_s']:.2f}/s, backlog {'grows' if p['grows'] else 'steady'}, "
        f"{'sustained' if p['sustained'] else 'NOT sustained'}"
        for p in phases
    ]
    notes.append(
        f"nominal p95 from {nominal['n']} jobs "
        f"({'supported' if supports_percentile(nominal['n'], 95) else 'fewer than 10 beyond p95'}); "
        f"latency limit {LATENCY_LIMIT_S:g} s; generator late p95 {percentile(late, 95) * 1e3:.1f} ms"
    )
    if not passing:
        notes.append("no rate step met the limit; sustained_jobs_per_s shows the nominal phase")
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "errors": obs["errors"], "notes": notes}
