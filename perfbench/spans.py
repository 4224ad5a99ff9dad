"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name (``<layer>.<what>``), start and end on the
``perf_counter`` clock, the id of the span that caused it and a trace
id shared by every span of one job.  Spans stay in memory and are
written out once, when the run ends.  With tracing off, :class:`Tracer`
hands out a no-op span so the measured code path is the same.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "self_times"]


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, trace: str | None = None):
        """Time the body as one span; nests under the enclosing span."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "trace": trace or (parent["trace"] if parent else None),
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path, host: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"host": host, "spans": self.spans}, fh)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per layer (the name's first component).

    A span's self time is its duration minus the union of the intervals
    its direct children cover.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, cursor), min(b, s["end"])
            if b > a:
                covered += b - a
                cursor = b
        out[s["name"].split(".", 1)[0]] += (s["end"] - s["start"]) - covered
    return dict(out)
