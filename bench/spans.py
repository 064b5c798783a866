"""In-memory spans around the benchmark's own calls into ``biheyt``.

A span records its name, start, end, parent span and the op id current when
it opened.  ``NullTracer`` is what untraced runs use: ``wrap`` returns the
function itself, so an untraced run pays nothing per call.
"""
from __future__ import annotations

import contextlib
from time import perf_counter


class NullTracer:
    op = None

    def wrap(self, name, fn):
        return fn

    @contextlib.contextmanager
    def span(self, name):
        yield

    def count(self, name, n):
        pass


class Tracer:
    """Records spans; ``phase`` tags them as setup, round or replay work."""

    def __init__(self):
        self.spans = []   # (name, start, end, parent, op, phase)
        self.counts = {}  # (name, phase) -> total
        self.op = None
        self._stack = []
        self._phase = None

    def _open(self, name):
        rec = [name, perf_counter(), None,
               self._stack[-1] if self._stack else None, self.op, self._phase]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        # a tuple of plain values drops out of the garbage collector's scans
        self.spans[self._stack.pop()] = tuple(rec)

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    @contextlib.contextmanager
    def phase(self, name):
        outer, self._phase = self._phase, name
        try:
            yield
        finally:
            self._phase = outer

    def count(self, name, n):
        key = (name, self._phase)
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    # -- aggregation ----------------------------------------------------------

    def self_times(self):
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _ph in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[k]
                for k, (_n, start, end, _p, _o, _ph) in enumerate(self.spans)]

    def summary(self):
        """Per span name: calls per phase, total and self seconds."""
        selfs = self.self_times()
        out = {}
        for k, (name, start, end, _p, _o, phase) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": {}, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"][phase] = row["calls"].get(phase, 0) + 1
            row["total_s"] += end - start
            row["self_s"] += selfs[k]
        return out

    def to_json(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o,
                 "phase": ph} for n, s, e, p, o, ph in self.spans]
