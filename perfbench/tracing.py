"""In-memory spans recorded around calls into the package.

A span is (name, start, end, parent, task): `parent` is the index of the
enclosing span or None, `task` the task id it belongs to (None for work done
outside a task, such as input generation). Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

_NULL_SPAN = nullcontext()


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    def span(self, name):
        return _NULL_SPAN

    def count(self, name, value):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.task = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.task])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        self.counts[name] = value


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans, name) -> list[float]:
    """Self time of each span called `name`: its duration minus what its
    direct children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    return [
        (span[2] - span[1]) - _covered(children.get(index, ()))
        for index, span in enumerate(spans)
        if span[0] == name
    ]


def per_task_totals(spans, name) -> list[float]:
    """Summed duration of the spans called `name`, one total per task id
    that has any (input generation counts as the task id None)."""
    totals: dict = {}
    for span in spans:
        if span[0] == name:
            totals[span[4]] = totals.get(span[4], 0.0) + span[2] - span[1]
    return list(totals.values())
