"""Spans around the benchmark's calls into isqkit, and the per-layer figures they give.

A span records a name (``<module>.<function>``), an optional tag, start and
end times, the span that was open when it began, the operation id, and a
work count (steps, instructions, sets) used for rates.  Spans are kept in
memory and written out once, when the run ends.  With tracing disabled,
``call`` is a plain function call.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._op = None

    def call(self, name: str, fn, *args, tag: str | None = None, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, tag, perf_counter(), None, parent, self._op, 0]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            self._stack.pop()

    def work(self, amount: int):
        """Attach a work count to the span that closed last."""
        if self.enabled:
            self.spans[-1][6] = amount

    def count(self, key: str, value: float):
        """Add to a count of the current operation."""
        if self.enabled:
            self.counts[key] = self.counts.get(key, 0) + value

    def begin_op(self, op_id: int, name: str):
        self._op = op_id
        self.counts = {}
        if self.enabled:
            self.spans.append([name, None, perf_counter(), None, None, op_id, 0])
            self._stack.append(len(self.spans) - 1)

    def end_op(self) -> dict[str, float]:
        """Close the operation's span and return its counts."""
        if self.enabled:
            self.spans[self._stack.pop()][3] = perf_counter()
        self._op = None
        return self.counts

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            for name, tag, start, end, parent, op, work in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "tag": tag, "start": start, "end": end,
                         "parent": parent, "op": op, "work": work}
                    )
                    + "\n"
                )


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Spans nest properly (they come from one call stack), so the children of a
    span cover disjoint intervals and their durations simply add up.
    """
    child = [0.0] * len(spans)
    for span in spans:
        parent = span[4]
        if parent is not None:
            child[parent] += span[3] - span[2]
    return [span[3] - span[2] - child[i] for i, span in enumerate(spans)]


class SpanStats:
    """Calls, self time and work per span name, and per (name, tag)."""

    def __init__(self, spans: list[list]):
        self.calls: dict = defaultdict(int)
        self.busy: dict = defaultdict(float)
        self.work: dict = defaultdict(int)
        for span, own in zip(spans, self_times(spans)):
            for key in (span[0], (span[0], span[1])):
                self.calls[key] += 1
                self.busy[key] += own
                self.work[key] += span[6]

    def busy_per_call(self, key) -> float:
        return self.busy[key] / self.calls[key] if self.calls[key] else 0.0

    def rate(self, key) -> float:
        return self.work[key] / self.busy[key] if self.busy[key] else 0.0

    def module_self(self, module: str) -> float:
        return sum(v for k, v in self.busy.items() if isinstance(k, str) and k.split(".")[0] == module)
