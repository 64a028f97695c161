"""In-memory spans around calls into corrqec's public functions.

A span has a name (``<module>.<function>``), start and end (perf_counter),
the id of its parent span, the workload item it belongs to, the pass it
ran in and optional attributes.  Spans stay in memory and are written out
once, when the run ends.  Self time is a span's duration minus the
durations of its children; calls nest, so children never overlap.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.item = None
        self.pass_index = 0

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
               "item": self.item, "pass": self.pass_index, "start": time.perf_counter(),
               "end": None}
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, name: str, fn, attrs_of=None):
        """fn with a span around every call; attrs_of(*args) labels the span."""
        def traced(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)
        return traced

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Attach spans recorded in another process under span `parent`."""
        base = len(self.spans)
        for rec in spans:
            rec = dict(rec)
            rec["id"] += base
            rec["parent"] = parent if rec["parent"] is None else rec["parent"] + base
            rec["pass"] = self.pass_index
            self.spans.append(rec)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in with_self_times(self.spans):
                fh.write(json.dumps(rec) + "\n")


def with_self_times(spans: list[dict]) -> list[dict]:
    child = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            child[rec["parent"]] += rec["end"] - rec["start"]
    out = []
    for rec, c in zip(spans, child):
        rec = dict(rec)
        rec["dur"] = rec["end"] - rec["start"]
        rec["self"] = rec["dur"] - c
        out.append(rec)
    return out
