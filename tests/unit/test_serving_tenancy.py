"""Unit tests for the multi-tenant serving manager."""

import pytest

from repro.errors import ServingError
from repro.obs.metrics import MetricsRegistry
from repro.serving.tenancy import TenantManager, tenant_fingerprint
from repro.synth.tenants import (
    TenantMixConfig,
    TenantSpec,
    build_tenant_workload,
)


def small_mix(n=2, seed=31):
    return TenantMixConfig(
        n_tenants=n, seed=seed, kinds=("static",), n_items=8,
        n_sources=3, parts=2,
    )


class TestManagerBasics:
    def test_needs_at_least_one_tenant(self):
        with pytest.raises(ServingError, match="at least one"):
            TenantManager([])

    def test_duplicate_tenant_names_rejected(self):
        workload = build_tenant_workload(TenantSpec(name="twin", seed=1))
        with pytest.raises(ServingError, match="duplicate"):
            TenantManager([workload, workload])

    def test_unknown_tenant_lookup_raises(self):
        manager = TenantManager.from_mix(small_mix())
        with pytest.raises(ServingError, match="unknown tenant"):
            manager.tenant("ghost")

    def test_drain_finishes_every_tenant(self):
        manager = TenantManager.from_mix(small_mix(n=3))
        rounds = manager.drain_fair()
        assert rounds > 0
        for name in manager.names():
            runtime = manager.tenant(name)
            assert runtime.finished
            assert runtime.halted is None
            assert runtime.published == len(runtime.workload.deltas)
        for status in (
            manager.tenant(name).server.status() for name in manager.names()
        ):
            assert status.lag_events == 0

    def test_drain_is_idempotent_once_finished(self):
        manager = TenantManager.from_mix(small_mix())
        manager.drain_fair()
        versions = {
            name: manager.tenant(name).server.versions.current.version_id
            for name in manager.names()
        }
        assert manager.drain_fair() == 0  # nothing live: zero rounds
        for name, version_id in versions.items():
            current = manager.tenant(name).server.versions.current
            assert current.version_id == version_id


class TestPerTenantMetrics:
    def test_every_stream_series_carries_its_tenant_label(self):
        registry = MetricsRegistry()
        manager = TenantManager.from_mix(small_mix(n=2), metrics=registry)
        manager.drain_fair()
        snapshot = registry.snapshot().to_json_dict()
        for kind in ("counters", "gauges", "histograms"):
            for key in snapshot[kind]:
                if key.startswith(("stream_", "serving_")):
                    assert "tenant=" in key, key
        assert registry.gauge("tenant_count").value == 2

    def test_label_subset_separates_tenants(self):
        registry = MetricsRegistry()
        manager = TenantManager.from_mix(small_mix(n=2), metrics=registry)
        manager.drain_fair()
        snapshot = registry.snapshot()
        mine = snapshot.label_subset(tenant="tenant00")
        assert mine.counters
        assert all("tenant=tenant00" in key for key in mine.counters)


class TestPerTenantCheckpoints:
    def test_checkpoints_land_under_per_tenant_subdirectories(self, tmp_path):
        manager = TenantManager.from_mix(
            small_mix(n=2), checkpoint_root=tmp_path
        )
        manager.drain_fair()
        paths = manager.checkpoint_all()
        assert sorted(paths) == ["tenant00", "tenant01"]
        for name, path in paths.items():
            assert path == tmp_path / name / "serving.ckpt"
            assert path.exists()

    def test_checkpoint_payload_records_the_serving_cursor(self, tmp_path):
        manager = TenantManager.from_mix(
            small_mix(n=1), checkpoint_root=tmp_path
        )
        manager.drain_fair()
        runtime = manager.tenant("tenant00")
        runtime.checkpoint()
        payload = runtime.checkpoints.load("serving")
        version = runtime.server.versions.current
        assert payload["tenant"] == "tenant00"
        assert payload["version_id"] == version.version_id
        assert payload["offset"] == version.offset

    def test_fingerprint_tracks_the_spec(self):
        a = tenant_fingerprint(TenantSpec(name="t", seed=1))
        b = tenant_fingerprint(TenantSpec(name="t", seed=2))
        assert a != b
        assert a == tenant_fingerprint(TenantSpec(name="t", seed=1))


class TestEvalReport:
    def test_rows_cover_every_tenant_with_kind_specific_columns(self):
        mix = TenantMixConfig(n_tenants=3, seed=7)  # one of each kind
        manager = TenantManager.from_mix(mix)
        rounds = manager.drain_fair()
        report = manager.eval_rows(rounds=rounds)
        assert [row.kind for row in report.rows] == [
            "static", "drift", "copying",
        ]
        static, drift, copying = report.rows
        for row in report.rows:
            assert 0.0 <= row.precision <= 1.0
            assert 0.0 <= row.f1 <= 1.0
            assert row.published == row.deltas
            assert row.halted is None
        assert drift.freshness_lag is not None
        assert static.freshness_lag is None
        assert copying.suppressed is not None
        assert static.suppressed is None

    def test_report_json_is_deterministic_and_table_renders(self):
        first = TenantManager.from_mix(small_mix(n=2))
        second = TenantManager.from_mix(small_mix(n=2))
        r1 = first.eval_rows(rounds=first.drain_fair())
        r2 = second.eval_rows(rounds=second.drain_fair())
        assert r1.to_json_dict() == r2.to_json_dict()
        table = r1.table()
        assert "tenant00" in table and "tenant01" in table
        with pytest.raises(KeyError):
            r1.row("ghost")
