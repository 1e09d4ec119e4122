"""In-memory spans for the traced run, written out once when the run ends.

A span is (name, start, end, parent, count): start and end are
perf_counter seconds, parent is the index of the enclosing span or -1, and
count is how many calls into the layer the span covers (a batch of member
calls is one span).  Spans are recorded only around the benchmark's own
calls into ringcodes; nothing inside the package is instrumented.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.values: dict[str, float] = {}

    def open(self, name: str, parent: int = -1) -> int:
        """Start a span that encloses others; close it with close()."""
        self.spans.append((name, time.perf_counter(), 0.0, parent, 0))
        return len(self.spans) - 1

    def close(self, idx: int, count: int = 1) -> None:
        name, start, _, parent, _ = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, count)

    def add(self, name: str, start: float, end: float, parent: int = -1, count: int = 1) -> None:
        self.spans.append((name, start, end, parent, count))

    def totals(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed duration in s, summed call count)."""
        out: dict[str, tuple[float, int]] = {}
        for name, start, end, _, count in self.spans:
            dur, calls = out.get(name, (0.0, 0))
            out[name] = (dur + end - start, calls + count)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "count"],
                "spans": self.spans,
                "values": self.values,
            }, fh)
