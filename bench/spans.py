"""In-memory span recorder for the benchmark's traced runs.

A span is one call into a layer, recorded by the benchmark around a
public function: name, start, end, the span it ran inside, and the word
it served.  Spans stay in memory and are written once, when the traced
process finishes.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    def __init__(self) -> None:
        # (id, name, start, end, parent id or -1, word id)
        self.spans: list[tuple[int, str, float, float, int, str]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, word: str = ""):
        parent = self._stack[-1] if self._stack else -1
        ident = len(self.spans)
        self.spans.append((ident, name, 0.0, 0.0, parent, word))
        self._stack.append(ident)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[ident] = (ident, name, start, end, parent, word)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus the time its
        direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for ident, name, start, end, _, _ in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start) - covered[ident]
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "word")
        rows = [dict(zip(keys, span)) for span in self.spans]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")
