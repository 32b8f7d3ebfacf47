"""Unit tests for the span tracer."""

from repro.obs import validate_trace
from repro.obs.trace import SpanTracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


class TestSpanNesting:
    def test_spans_nest_under_the_open_parent(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        with tracer.span("pipeline"):
            clock.advance(1.0)
            with tracer.span("fusion"):
                clock.advance(2.0)
            clock.advance(0.5)
        doc = tracer.to_json_dict()
        assert len(doc["spans"]) == 1
        root = doc["spans"][0]
        assert root["name"] == "pipeline"
        assert root["start"] == 0.0
        assert root["seconds"] == 3.5
        (child,) = root["children"]
        assert child["name"] == "fusion"
        assert child["start"] == 1.0
        assert child["seconds"] == 2.0

    def test_siblings_attach_in_order(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        with tracer.span("root"):
            for name in ("a", "b"):
                with tracer.span(name):
                    clock.advance(1.0)
        names = [
            span["name"]
            for span in tracer.to_json_dict()["spans"][0]["children"]
        ]
        assert names == ["a", "b"]

    def test_explicit_end_is_idempotent(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        handle = tracer.span("stage")
        clock.advance(2.0)
        handle.end(detail="done")
        clock.advance(5.0)
        handle.end(detail="later")  # no-op: already closed
        span = tracer.to_json_dict()["spans"][0]
        assert span["seconds"] == 2.0
        assert span["detail"] == "done"

    def test_exception_marks_the_span_failed(self):
        tracer = SpanTracer(clock=FakeClock())
        try:
            with tracer.span("stage"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert tracer.to_json_dict()["spans"][0]["status"] == "failed"


class TestExport:
    def test_export_passes_the_schema_validator(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        with tracer.span("pipeline"):
            clock.advance(1.0)
            with tracer.span("stage", detail="ok"):
                clock.advance(0.25)
        assert validate_trace(tracer.to_json_dict()) == []
