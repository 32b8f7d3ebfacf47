"""Nested span tracing for pipeline runs.

A *span* is one named unit of work with a wall-clock start offset and
duration; spans nest, so a run exports as a JSON trace tree — the
pipeline root span, stage spans under it, and finer-grained children
(phases, fuse call) under those.  This is the same shape distributed
tracers emit, kept dependency-free.

Spans are created by :meth:`SpanTracer.span`, a context manager timing
a live block (the pipeline's ``_timed`` opens one per stage).

All span fields are timing-type and therefore outside the metric
determinism contract; traces are for debugging latency, not for
byte-identical diffing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["Span", "SpanTracer"]


@dataclass(slots=True)
class Span:
    """One named unit of work in the trace tree."""

    name: str
    start: float  # seconds since the tracer's epoch
    seconds: float = 0.0
    detail: str = ""
    status: str = "ok"  # "ok" | "failed"
    children: list["Span"] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
            "detail": self.detail,
            "status": self.status,
            "children": [child.to_json_dict() for child in self.children],
        }


class _SpanHandle:
    """An open span: context manager and explicit ``end()`` in one."""

    __slots__ = ("_tracer", "span", "_closed")

    def __init__(self, tracer: "SpanTracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._closed = False

    def end(self, *, detail: str | None = None, failed: bool = False) -> Span:
        if self._closed:
            return self.span
        self._closed = True
        self.span.seconds = self._tracer._now() - self.span.start
        if detail is not None:
            self.span.detail = detail
        if failed:
            self.span.status = "failed"
        self._tracer._pop(self.span)
        return self.span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end(failed=exc_type is not None)


class SpanTracer:
    """Collects a tree of nested spans against one clock epoch.

    The clock is injectable for tests; offsets are relative to the
    tracer's construction time, so a trace is self-contained.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def _now(self) -> float:
        return self._clock() - self._epoch

    def _attach(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    def _pop(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    # -- public API ----------------------------------------------------
    def span(self, name: str, detail: str = "") -> _SpanHandle:
        """Open a nested span; close it via ``with`` or ``.end()``."""
        span = Span(name=name, start=self._now(), detail=detail)
        self._attach(span)
        self._stack.append(span)
        return _SpanHandle(self, span)

    def to_json_dict(self) -> dict:
        """The JSON trace tree (``--trace-out`` writes exactly this)."""
        return {
            "seconds": self._now(),
            "spans": [span.to_json_dict() for span in self.roots],
        }
