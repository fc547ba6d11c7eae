"""In-memory spans recorded by the benchmark around its calls into linearrag."""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Iterator


@dataclass
class Span:
    name: str
    trace_id: str  # shared by the spans of one setup, append or query
    parent: int | None  # index of the enclosing span in Tracer.spans
    start_ns: int
    end_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans; nothing is written until :meth:`write` at the end."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, trace_id: str) -> Iterator[Span]:
        record = Span(name, trace_id, self._open[-1] if self._open else None, perf_counter_ns())
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end_ns = perf_counter_ns()
            self._open.pop()

    def self_times_ms(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration_ns
        out: dict[str, list[float]] = defaultdict(list)
        for span, child_ns in zip(self.spans, covered):
            out[span.name].append((span.duration_ns - child_ns) / 1e6)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(asdict(span)) + "\n")


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str, trace_id: str) -> contextlib.nullcontext:
        return self._null
