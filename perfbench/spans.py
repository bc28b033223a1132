"""In-memory spans around the harness's calls into the package.

A span is (id, name, start_ns, end_ns, parent id).  Spans are kept in a list
while the run measures and written out only when it ends, so tracing adds no
I/O to the timed ops.  A span's self time is its duration minus the part of
its interval that its child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class NullTracer:
    """Untraced calls: the same interface with no bookkeeping."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per call; nested calls become child spans."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start_ns, end_ns, parent]
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [span_id, name, perf_counter_ns(), 0, parent]
        self.spans.append(span)
        self._stack.append(span_id)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter_ns()
            self._stack.pop()

    def self_times_ns(self) -> dict[str, int]:
        """Total self time per span name."""
        children = defaultdict(list)
        for span_id, _, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, int] = defaultdict(int)
        for span_id, name, start, end, _ in self.spans:
            covered = 0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start = max(c_start, cursor)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            totals[name] += (end - start) - covered
        return dict(totals)

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][2] if self.spans else 0
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent,
                    "start_ns": start - origin, "end_ns": end - origin,
                }) + "\n")
