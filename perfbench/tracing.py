"""Spans recorded around the benchmark's calls into biqz.

A span is (id, parent id, operation id, name, start, end, count): every
operation gets an ``op.<kind>`` span with its own operation id, and each
public call made while performing it is a child span.  ``count`` carries a
work count taken from the call's result (terms summed, terms iterated).
Spans are kept in memory and written out when the run ends.
"""
from __future__ import annotations

import gzip
import json
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Untraced:
    """The tracer interface with nothing recorded."""

    def call(self, name, fn, *args, count=None, **kwargs):
        return fn(*args, **kwargs)

    def op(self, kind):
        return nullcontext()

    def tally(self, name, value):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.tallies: dict[str, float] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._op_id = -1

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    @contextmanager
    def op(self, kind):
        self._op_id = sid = self._new_id()
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append((sid, None, sid, f"op.{kind}", start, perf_counter(), None))

    def call(self, name, fn, *args, count=None, **kwargs):
        sid = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            self._stack.pop()
            n = count(result) if count is not None and result is not None else None
            self.spans.append((sid, parent, self._op_id, name, start, end, n))

    def tally(self, name, value):
        self.tallies[name] = self.tallies.get(name, 0) + value

    def write(self, path):
        """One JSON object per span and line, gzip-compressed."""
        keys = ("id", "parent", "op", "name", "start", "end", "count")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class SpanStats:
    """Durations and counts of spans grouped by name."""

    def __init__(self, spans, rounds: int):
        self.rounds = rounds
        self.durations: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        for _, _, _, name, start, end, n in spans:
            self.durations.setdefault(name, []).append(end - start)
            if n is not None:
                self.counts[name] = self.counts.get(name, 0) + n

    def has(self, name) -> bool:
        return bool(self.durations.get(name))

    def median(self, name) -> float:
        return statistics.median(self.durations[name])

    def busy_per_round(self, name) -> float:
        return sum(self.durations[name]) / self.rounds

    def calls_per_round(self, name) -> float:
        return len(self.durations.get(name, ())) / self.rounds

    def per_count(self, name) -> float:
        return sum(self.durations[name]) / self.counts[name]

    def count_per_round(self, name) -> float:
        return self.counts.get(name, 0) / self.rounds
