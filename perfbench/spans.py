"""Spans recorded around calls into the package, and their self times.

A span is [name, start, end, parent, op]: perf_counter seconds, the index
of the enclosing span in the same operation (None at the root) and the
operation id.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()


class NullTracer:
    """Same interface, records nothing: used by untraced passes."""

    spans = ()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def self_times(spans) -> list[tuple[str, float]]:
    """(name, self time) per span: its duration minus its children's.
    One nested tracer records them all, so children never overlap."""
    inner = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent is not None:
            inner[parent] += end - start
    return [(name, end - start - inner[i]) for i, (name, start, end, _p, _op) in enumerate(spans)]
