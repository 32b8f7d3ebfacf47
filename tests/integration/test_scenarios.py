"""Integration tests: the drift, copying and tenant scenario runs.

These pin the two acceptance contracts of the moving-truth scenarios:

* :func:`run_drift` drives the epoch-delta stream end-to-end through
  :meth:`Pipeline.serve` and its JSON report is byte-identical across
  two same-seed runs (determinism survives the full serving stack, not
  just the generator).
* :func:`run_copying`'s eval table shows the correlation-aware mode
  suppressing strictly more copied errors than the correlation-blind
  mode, at no worse precision.
"""

import json

import pytest

from repro.core.pipeline import KnowledgeBaseConstructionPipeline
from repro.core.scenarios import (
    CopyingScenarioReport,
    DriftScenarioReport,
    run_copying,
    run_drift,
    run_tenants,
)
from repro.obs import MetricsRegistry
from repro.serving.tenancy import TenantMixReport
from repro.obs.schema import validate_metrics, validate_tenant_metrics
from repro.synth.copying import CopyingConfig
from repro.synth.drift import DriftConfig
from repro.synth.tenants import TenantMixConfig

DRIFT = DriftConfig(seed=7, n_items=24, n_sources=5, epochs=4)
COPYING = CopyingConfig(seed=0, n_items=60, lag=1)
TENANTS = TenantMixConfig(
    n_tenants=3, seed=11, n_items=10, n_sources=4, parts=2, epochs=2
)


def _report_bytes(report):
    return json.dumps(
        report.to_json_dict(), sort_keys=True, separators=(",", ":")
    )


class TestRunDrift:
    @pytest.fixture(scope="class")
    def drift_report(self):
        pipeline = KnowledgeBaseConstructionPipeline()
        report = run_drift(pipeline, DRIFT)
        return pipeline, report

    def test_report_shape(self, drift_report):
        _, report = drift_report
        assert isinstance(report, DriftScenarioReport)
        assert report.seed == DRIFT.seed
        assert len(report.rows) == DRIFT.epochs
        assert report.base_claims > 0
        assert report.wall_seconds > 0

    def test_serving_tracks_every_epoch(self, drift_report):
        pipeline, report = drift_report
        # Fault-free: serving commits each epoch as it is published.
        for row in report.rows:
            assert row.served_epoch == row.epoch
            assert row.freshness.lag_epochs == 0
            assert row.freshness.staleness == 0.0
        assert report.final_version == DRIFT.epochs
        # The drift corpus replaced the claim corpus: a fresh server
        # primes on the post-drift engine state.
        assert pipeline.serve().versions.current.sequence == DRIFT.epochs

    def test_fusion_quality_holds_under_drift(self, drift_report):
        _, report = drift_report
        for row in report.rows:
            assert row.freshness.vs_served.f1 > 0.7

    def test_double_run_is_byte_identical(self, drift_report):
        _, first = drift_report
        second = run_drift(KnowledgeBaseConstructionPipeline(), DRIFT)
        assert _report_bytes(first) == _report_bytes(second)

    def test_metrics_published_and_schema_valid(self, drift_report):
        pipeline, _ = drift_report
        snapshot = pipeline.metrics.snapshot().to_json_dict()
        validate_metrics(snapshot)
        counters = snapshot["counters"]
        assert counters["drift_runs_total"] == 1
        assert counters["drift_epochs_total"] == DRIFT.epochs
        assert "drift_freshness_lag_epochs" in snapshot["gauges"]
        assert "drift_staleness_ratio" in snapshot["gauges"]

    def test_table_renders(self, drift_report):
        _, report = drift_report
        table = report.table()
        assert "epoch" in table
        assert "f1@served" in table

    def test_explicit_config_overrides_pipeline_config(self):
        pipeline = KnowledgeBaseConstructionPipeline()
        other = DriftConfig(seed=1, n_items=12, n_sources=4, epochs=2)
        report = run_drift(pipeline, other)
        assert report.seed == 1
        assert len(report.rows) == 2


class TestRunCopying:
    @pytest.fixture(scope="class")
    def copying_report(self):
        metrics = MetricsRegistry()
        report = run_copying(COPYING, metrics=metrics)
        return metrics, report

    def test_report_shape(self, copying_report):
        _, report = copying_report
        assert isinstance(report, CopyingScenarioReport)
        assert report.copied_errors > 0
        assert {row.mode for row in report.rows} == {
            "correlation-blind", "correlation-aware"
        }

    def test_aware_beats_blind_on_suppression(self, copying_report):
        _, report = copying_report
        blind = report.mode("correlation-blind")
        aware = report.mode("correlation-aware")
        assert aware.suppressed > blind.suppressed
        assert aware.leaked < blind.leaked
        assert aware.precision >= blind.precision

    def test_outcome_partition(self, copying_report):
        _, report = copying_report
        for row in report.rows:
            assert row.suppressed + row.leaked == report.copied_errors

    def test_metrics_published_and_schema_valid(self, copying_report):
        metrics, report = copying_report
        snapshot = metrics.snapshot().to_json_dict()
        validate_metrics(snapshot)
        counters = snapshot["counters"]
        assert counters["copying_runs_total"] == 1
        assert (
            counters["copying_copied_errors_total"] == report.copied_errors
        )
        aware = report.mode("correlation-aware")
        assert (
            counters['copying_suppressed_total{mode=correlation-aware}']
            == aware.suppressed
        )

    def test_double_run_is_byte_identical(self, copying_report):
        _, first = copying_report
        second = run_copying(COPYING, metrics=MetricsRegistry())
        assert _report_bytes(first) == _report_bytes(second)

    def test_table_renders(self, copying_report):
        _, report = copying_report
        table = report.table()
        assert "correlation-aware" in table
        assert "suppressed" in table


class TestRunTenants:
    @pytest.fixture(scope="class")
    def tenant_report(self):
        metrics = MetricsRegistry()
        report = run_tenants(TENANTS, metrics=metrics)
        return metrics, report

    def test_report_shape(self, tenant_report):
        _, report = tenant_report
        assert isinstance(report, TenantMixReport)
        assert report.tenants == TENANTS.n_tenants
        assert report.rounds > 0
        assert report.wall_seconds > 0
        kinds = [row.kind for row in report.rows]
        assert kinds == ["static", "drift", "copying"]
        for row in report.rows:
            assert row.published == row.deltas
            assert row.halted is None
            assert row.f1 > 0.5

    def test_double_run_is_byte_identical(self, tenant_report):
        _, first = tenant_report
        second = run_tenants(TENANTS, metrics=MetricsRegistry())
        assert _report_bytes(first) == _report_bytes(second)

    def test_metrics_are_tenant_labeled_and_schema_valid(
        self, tenant_report
    ):
        metrics, report = tenant_report
        snapshot = metrics.snapshot().to_json_dict()
        assert validate_metrics(snapshot) == []
        names = [row.name for row in report.rows]
        assert validate_tenant_metrics(snapshot, names) == []
        assert snapshot["counters"]["tenant_runs_total"] == 1

    def test_table_renders(self, tenant_report):
        _, report = tenant_report
        table = report.table()
        assert "tenant" in table
        assert "tenant02" in table
