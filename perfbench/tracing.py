"""In-memory spans recorded around calls into the fhmm layers.

A span has a name ``<layer>.<call>``, a start, an end and the id of the span
that was open when it started.  Spans stay in memory until the run ends and
are then written out as one JSON document.  Start and end are read from
`clock`; a span's length is `length(start, end)`, by default their
difference (the benchmark passes its speed sampler's, see speed.py).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


def _difference(start: float, end: float) -> float:
    return end - start


class Tracer:
    def __init__(self, clock=time.perf_counter, length=_difference) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._clock, self._length = clock, length

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span; yields the span record."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": self._clock(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = self._clock()

    def total(self, name: str, under: str | None = None) -> float:
        """Summed duration of spans called `name`, optionally only those
        with an ancestor span called `under`."""
        return sum(
            self.duration(s)
            for s in self.spans
            if s["name"] == name and (under is None or self._has_ancestor(s, under))
        )

    def duration(self, span: dict) -> float:
        return self._length(span["start"], span["end"])

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def _has_ancestor(self, span: dict, name: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == name:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the time its child spans cover; the
        uncovered share of a span's clock time, of its length."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            layer = s["name"].split(".", 1)[0]
            clock_time = s["end"] - s["start"]
            uncovered = 1.0 - covered / clock_time if clock_time > 0 else 0.0
            out[layer] = out.get(layer, 0.0) + self.duration(s) * uncovered
        return dict(sorted(out.items()))

    def write(self, path: Path, extra: dict) -> None:
        doc = {**extra, "self_time_s": self.self_times(), "spans": self.spans}
        path.write_text(json.dumps(doc) + "\n")
