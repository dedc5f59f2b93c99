"""In-memory spans recorded by the benchmark around its calls into the
program, and the per-layer table folded from them.

A span is ``(id, parent, request, name, start, end)``.  Spans are only
recorded in a traced run (``--trace 1``); an untraced run gets the no-op
tracer, so end-to-end metrics never pay for span bookkeeping.  Self time
is a span's duration minus its children's, so the self times under one
root sum to the root's duration by construction.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request: Optional[str] = None):
        record = {
            "id": len(self.spans) + 1,
            "parent": self._stack[-1] if self._stack else 0,
            "request": request or self._inherited_request(),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def child(self, name: str, start: float, end: float) -> None:
        """A span measured elsewhere (a duration the program reports),
        attached under the open span."""
        self.spans.append({
            "id": len(self.spans) + 1, "parent": self._stack[-1],
            "request": self._inherited_request(), "name": name,
            "start": start, "end": end, "aggregate": True,
        })

    def _inherited_request(self) -> Optional[str]:
        return self.spans[self._stack[-1] - 1]["request"] if self._stack \
            else None

    def self_times(self) -> Dict[str, float]:
        """Σ self time per span name."""
        covered: Dict[int, float] = {}
        for s in self.spans:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) \
                + s["end"] - s["start"]
        totals: Dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
            totals[s["name"]] = totals.get(s["name"], 0.0) + own
        return totals

    def root_time(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] == 0)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class NullTracer:
    """Records nothing; shares the Tracer call surface."""

    enabled = False

    @contextmanager
    def span(self, name: str, request: Optional[str] = None):
        yield None

    def child(self, name: str, start: float, end: float) -> None:
        pass
