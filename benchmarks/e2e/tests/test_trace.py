"""The tracing context manager: records, restores, fails loudly."""

import types

import pytest

from repro.obs import SpanTracer

from benchmarks.e2e.trace import (
    Boundary,
    boundaries,
    summarize,
    tracing,
)


class Engine:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i

    @staticmethod
    def build(items):
        return list(items)


def _table(module):
    return [
        Boundary("layer.a", Engine, "outer"),
        Boundary("layer.a", Engine, "inner"),
        Boundary("layer.b", Engine, "build",
                 lambda counts, args, kwargs, result: counts.update(
                     built=counts.get("built", 0) + len(result))),
        Boundary("layer.b", module, "helper"),
    ]


def test_spans_counts_and_restore():
    module = types.SimpleNamespace(helper=lambda: Engine.build("ab"))
    originals = (
        vars(Engine)["outer"], vars(Engine)["build"], module.helper
    )
    tracer, counts = SpanTracer(), {}
    with tracing(tracer, counts, _table(module)):
        assert Engine().outer(3) == 3
        assert module.helper() == ["a", "b"]
    assert (
        vars(Engine)["outer"], vars(Engine)["build"], module.helper
    ) == originals
    assert counts == {"built": 2}
    summary = summarize(tracer)
    assert summary.calls("layer.a:inner") == 3
    assert summary.calls("layer.b:build") == 1
    # inner spans nest under outer: the layer is busy once, not twice.
    assert summary.busy["layer.a"] == pytest.approx(
        summary.total("layer.a:outer")
    )
    assert summary.self_time["layer.a"] <= summary.busy["layer.a"]
    assert summary.root_seconds == pytest.approx(
        summary.busy["layer.a"] + summary.busy["layer.b"]
    )


def test_restores_when_the_workload_raises():
    module = types.SimpleNamespace(helper=lambda: None)
    before = {name: vars(Engine)[name] for name in ("outer", "inner", "build")}
    helper = module.helper
    with pytest.raises(RuntimeError):
        with tracing(SpanTracer(), {}, _table(module)):
            assert vars(Engine)["outer"] is not before["outer"]
            raise RuntimeError("workload died")
    assert {name: vars(Engine)[name] for name in before} == before
    assert module.helper is helper


def test_missing_boundary_fails_before_patching_anything():
    module = types.SimpleNamespace()  # no ``helper`` any more
    outer = vars(Engine)["outer"]
    with pytest.raises(LookupError, match="helper"):
        with tracing(SpanTracer(), {}, _table(module)):
            pass
    assert vars(Engine)["outer"] is outer


def test_every_real_boundary_exists_and_restores():
    table = boundaries()
    before = [vars(b.owner)[b.attribute] for b in table]
    with tracing(SpanTracer(), {}, table):
        pass
    assert [vars(b.owner)[b.attribute] for b in table] == before
