"""Pipeline observability: report accuracy fixes and instrumentation.

Covers the two report-accuracy regressions (``total_seconds``
double-counting overlapped concurrent stages; ``_timed`` silently
dropping a raising stage's timing) plus the integration surface:
``PipelineReport.metrics`` / ``.trace`` populated across every
instrumented layer, the deterministic metric subset byte-identical
across same-seed runs, and a fatal mid-run crash leaving an
inspectable ``pipeline.last_report``.
"""

import json

import pytest

from repro.core.pipeline import (
    KnowledgeBaseConstructionPipeline,
    PipelineConfig,
    PipelineReport,
    StageTiming,
    _timed,
)
from repro.faults import FaultPlan, InjectedFault, RetryPolicy
from repro.obs import MetricsRegistry, SpanTracer, validate_metrics, \
    validate_trace
from repro.synth.querylog import QueryLogConfig
from repro.synth.websites import WebsiteConfig
from repro.synth.webtext import WebTextConfig
from repro.synth.world import WorldConfig


def _config(**overrides) -> PipelineConfig:
    return PipelineConfig(
        world=WorldConfig(
            entities_per_class={
                "Book": 15, "Film": 15, "Country": 12,
                "University": 12, "Hotel": 10,
            }
        ),
        querylog=QueryLogConfig(seed=17, scale=0.0005),
        websites=WebsiteConfig(sites_per_class=2, pages_per_site=6),
        webtext=WebTextConfig(sources_per_class=2, documents_per_source=6),
        **overrides,
    )


class TestTotalSeconds:
    """Regression: concurrent stage timings overlap on the wall clock.

    Summing per-stage seconds double-counts whenever stages ran in
    parallel; ``total_seconds()`` must report measured wall time, with
    the sum available separately as ``cumulative_stage_seconds()``.
    """

    def test_total_is_wall_not_the_overlapping_sum(self):
        report = PipelineReport()
        # Two stages that ran concurrently for 3s each: 4s of wall.
        report.timings.append(StageTiming("dom-extraction", 3.0))
        report.timings.append(StageTiming("webtext-extraction", 3.0))
        report.wall_seconds = 4.0
        assert report.cumulative_stage_seconds() == 6.0
        assert report.total_seconds() == 4.0

    def test_fallback_to_cumulative_when_wall_unmeasured(self):
        report = PipelineReport()
        report.timings.append(StageTiming("fusion", 2.0))
        assert report.total_seconds() == 2.0

    def test_json_dict_carries_both(self):
        report = PipelineReport()
        report.timings.append(StageTiming("fusion", 2.0))
        report.wall_seconds = 2.5
        payload = report.to_json_dict()
        assert payload["wall_seconds"] == 2.5
        assert payload["cumulative_stage_seconds"] == 2.0


class TestTimedFailure:
    """Regression: a raising stage must not lose its timing."""

    def test_timing_appended_with_failure_marker(self):
        report = PipelineReport()
        with pytest.raises(ValueError):
            with _timed(report, "confidence"):
                raise ValueError("boom")
        (timing,) = report.timings
        assert timing.stage == "confidence"
        assert timing.seconds >= 0.0
        assert timing.detail == "failed: ValueError"
        assert report.health.degraded["confidence"] == "ValueError: boom"

    def test_marker_appends_to_existing_detail(self):
        report = PipelineReport()
        with pytest.raises(RuntimeError):
            with _timed(report, "fusion") as timing:
                timing.detail = "120 claims"
                raise RuntimeError("dead")
        assert report.timings[0].detail == "120 claims; failed: RuntimeError"

    def test_success_path_unchanged(self):
        report = PipelineReport()
        with _timed(report, "fusion") as timing:
            timing.detail = "ok"
        assert report.timings[0].detail == "ok"
        assert report.health.status == "ok"

    def test_tracer_and_metrics_see_the_failure(self):
        report = PipelineReport()
        tracer = SpanTracer()
        metrics = MetricsRegistry()
        with pytest.raises(ValueError):
            with _timed(report, "fusion", tracer=tracer, metrics=metrics):
                raise ValueError("boom")
        span = tracer.to_json_dict()["spans"][0]
        assert span["status"] == "failed"
        assert span["detail"] == "failed: ValueError"
        counters = metrics.snapshot().counters
        assert counters["pipeline_stage_failed_total{stage=fusion}"] == 1
        histograms = metrics.snapshot().histograms
        assert histograms["pipeline_stage_seconds{stage=fusion}"].count == 1

    def test_isolated_stage_suppresses_and_marks_the_failure(self):
        report = PipelineReport()
        tracer = SpanTracer()
        metrics = MetricsRegistry()
        timer = _timed(
            report, "dom-extraction", isolated=True,
            tracer=tracer, metrics=metrics,
        )
        with timer:
            raise ValueError("boom")
        assert timer.failed
        assert report.health.degraded["dom-extraction"] == "ValueError: boom"
        assert report.timings[0].detail == "failed: ValueError"
        assert tracer.to_json_dict()["spans"][0]["status"] == "failed"
        counters = metrics.snapshot().counters
        assert (
            counters["pipeline_stage_failed_total{stage=dom-extraction}"]
            == 1
        )

    def test_isolated_stage_does_not_swallow_an_interrupt(self):
        report = PipelineReport()
        with pytest.raises(KeyboardInterrupt):
            with _timed(report, "dom-extraction", isolated=True):
                raise KeyboardInterrupt

    def test_injected_slow_seconds_breach_the_deadline_without_sleeping(
        self,
    ):
        report = PipelineReport()
        plan = FaultPlan(seed=1).slow(
            "stage:dom-extraction", seconds=99.0, attempts=0
        )
        timer = _timed(
            report, "dom-extraction", isolated=True,
            fault_plan=plan, stage_timeout=5.0,
        )
        with timer as timing:
            timing.detail = "3 claims"
        assert timer.failed
        assert 99.0 <= report.timings[0].seconds < 100.0
        assert report.timings[0].detail == "3 claims; failed: StageTimeoutError"
        assert report.health.degraded["dom-extraction"].startswith(
            "StageTimeoutError: stage dom-extraction ran 99."
        )

    def test_deadline_applies_to_isolated_stages_only(self):
        report = PipelineReport()
        plan = FaultPlan(seed=1).slow("stage:fusion", seconds=99.0, attempts=0)
        timer = _timed(report, "fusion", fault_plan=plan, stage_timeout=5.0)
        with timer:
            pass
        assert not timer.failed
        assert report.timings[0].seconds >= 99.0
        assert report.health.status == "ok"

    def test_entry_fault_is_booked_before_it_propagates(self):
        report = PipelineReport()
        metrics = MetricsRegistry()
        plan = FaultPlan(seed=1).crash("stage:fusion", attempts=0)
        entered = False
        with pytest.raises(InjectedFault):
            with _timed(report, "fusion", metrics=metrics, fault_plan=plan):
                entered = True
        assert not entered
        assert report.timings[0].detail == "failed: InjectedFault"
        assert "fusion" in report.health.degraded
        counters = metrics.snapshot().counters
        assert counters["pipeline_stage_failed_total{stage=fusion}"] == 1


@pytest.fixture(scope="module")
def observed_runs(tmp_path_factory):
    """Two same-seed full runs with every instrumented layer active."""
    reports = []
    for name in ("first", "second"):
        config = _config(
            checkpoint_dir=tmp_path_factory.mktemp(name),
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
        )
        reports.append(KnowledgeBaseConstructionPipeline(config).run())
    return reports


class TestInstrumentationIntegration:
    def test_metrics_cover_every_layer(self, observed_runs):
        counters = observed_runs[0].metrics.counters
        for prefix in (
            "pipeline_", "mapreduce_", "fusion_", "simcache_",
            "quarantine_", "checkpoint_",
        ):
            assert any(key.startswith(prefix) for key in counters), (
                f"no {prefix}* counter in {sorted(counters)}"
            )

    def test_exports_satisfy_their_schemas(self, observed_runs):
        report = observed_runs[0]
        assert validate_metrics(report.metrics.to_json_dict()) == []
        assert validate_trace(report.trace) == []

    def test_wall_seconds_measured(self, observed_runs):
        report = observed_runs[0]
        assert report.wall_seconds > 0.0
        assert report.total_seconds() == report.wall_seconds

    def test_trace_rooted_at_the_pipeline_span(self, observed_runs):
        root = observed_runs[0].trace["spans"][0]
        assert root["name"] == "pipeline"
        assert root["status"] == "ok"
        child_names = {span["name"] for span in root["children"]}
        assert "fusion" in child_names

    def test_stage_metrics_match_the_timings(self, observed_runs):
        report = observed_runs[0]
        counters = report.metrics.counters
        successes = sum(
            value for key, value in counters.items()
            if key.startswith("pipeline_stage_success_total")
        )
        assert successes == len(report.timings)

    def test_deterministic_subset_identical_across_runs(self, observed_runs):
        first, second = observed_runs
        assert json.dumps(
            first.metrics.deterministic_subset(), sort_keys=True
        ) == json.dumps(
            second.metrics.deterministic_subset(), sort_keys=True
        )

    def test_fusion_kernel_metrics_present(self, observed_runs):
        snapshot = observed_runs[0].metrics
        assert snapshot.counters["fusion_rounds_total"] > 0
        assert snapshot.gauges["fusion_components"] >= 1
        assert snapshot.histograms["fusion_component_claims"].count >= 1


class TestFatalCrashReport:
    def test_last_report_keeps_the_failed_stage(self):
        """A mid-run crash leaves timings/metrics/trace inspectable."""
        plan = FaultPlan(seed=5).crash("stage:fusion", attempts=0)
        pipeline = KnowledgeBaseConstructionPipeline(
            _config(fault_plan=plan)
        )
        with pytest.raises(InjectedFault):
            pipeline.run()
        report = pipeline.last_report
        assert report is not None
        fusion_timings = [
            timing for timing in report.timings if timing.stage == "fusion"
        ]
        assert fusion_timings, "failed stage timing was dropped"
        assert "failed: InjectedFault" in fusion_timings[0].detail
        assert report.health.status == "degraded"
        assert "fusion" in report.health.degraded
        # The finally block still published metrics and the trace.
        assert report.metrics is not None
        assert report.wall_seconds > 0.0
        assert report.trace["spans"][0]["status"] == "failed"
