"""The benchmark's own arithmetic: percentiles, lateness, backlog, time to target.

Everything here is pure Python on plain lists so ``test_perfbench.py``
can pin it down without running the program.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time

#: a tail percentile must leave at least this many samples beyond it
TAIL_MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    ``inf`` entries (refused or failed jobs) sort last, so they push the
    tail up instead of being dropped.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    if xs[hi] == math.inf:
        return xs[hi] if pos > lo else xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-th percentile."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def supports_percentile(n: int, q: float) -> bool:
    """True when ``n`` samples leave :data:`TAIL_MIN_BEYOND` beyond ``q``."""
    return samples_beyond(n, q) >= TAIL_MIN_BEYOND


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def lateness(due, sent) -> list[float]:
    """How late an open-loop generator sent each request (never negative)."""
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def backlog_series(submitted, finished, times) -> list[int]:
    """Jobs submitted but not finished at each instant of ``times``.

    ``finished`` holds ``inf`` for a job that never finished.
    """
    subs = sorted(submitted)
    fins = sorted(finished)
    out = []
    for t in times:
        out.append(_count_le(subs, t) - _count_le(fins, t))
    return out


def _count_le(sorted_xs, t) -> int:
    lo, hi = 0, len(sorted_xs)
    while lo < hi:
        mid = (lo + hi) // 2
        if sorted_xs[mid] <= t:
            lo = mid + 1
        else:
            hi = mid
    return lo


def backlog_grows(submitted, finished, start: float, end: float, slack: int) -> bool:
    """Did the backlog grow over ``[start, end]`` (the jobs due in a rate step)?

    The backlog is sampled at the step's first and last third; it grows
    when the later mean exceeds the earlier one by more than ``slack``
    jobs, or when jobs of the step are still unfinished at ``end`` plus
    the step's own length (the queue did not drain within one step).
    """
    span = end - start
    if span <= 0:
        raise ValueError("rate step must have positive length")
    grid = [start + span * i / 30.0 for i in range(31)]
    series = backlog_series(submitted, finished, grid)
    early = statistics.fmean(series[:10])
    late = statistics.fmean(series[-10:])
    if late - early > slack:
        return True
    in_step = [f for s, f in zip(submitted, finished) if start <= s < end]
    return any(f > end + span for f in in_step)


def time_to_target(samples, target: float, t0: float) -> float:
    """Seconds from ``t0`` to the first ``(t, best)`` sample with best <= target.

    ``samples`` are in time order; returns ``inf`` when none reached it.
    """
    for t, best in samples:
        if best <= target:
            return max(0.0, t - t0)
    return math.inf


def sample_best(read_best, done, samples: list, every_s: float) -> None:
    """Append ``(t, best)`` each time ``read_best()`` improves, until ``done``.

    Runs on its own thread beside a solve whose ``run()`` blocks, which
    is how ``ttt_s`` is read from outside the free-running shm engine.
    """
    last = math.inf
    while not done.is_set():
        best = read_best()
        if best < last:
            samples.append((time.perf_counter(), best))
            last = best
        done.wait(every_s)


def peak_rss_mb(include_self: bool = True) -> float:
    """Largest resident set of any waited-for descendant, and of this process."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if include_self else 0
    return max(own, kids) / 1024.0


def cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def host_fingerprint(seed: int) -> dict:
    """Host identity stamped on every result, plus the workload seed."""
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "seed": seed,
    }
