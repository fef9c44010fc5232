"""In-memory spans recorded by the benchmark around each layer call.

A span holds its name, start, end, parent span id and pass id, plus a
work count.  Spans stay in memory and are written out when the run
ends.  Self time is a span's duration minus the time its children cover.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, work: int = 0):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
               "pass": self.pass_id, "work": work, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its children.

    Children of one span run one after another, so their durations add."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in spans}


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: total self seconds, call count and work."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        t = out.setdefault(s["name"], {"s": 0.0, "calls": 0, "work": 0})
        t["s"] += own[s["id"]]
        t["calls"] += 1
        t["work"] += s["work"]
    return out
