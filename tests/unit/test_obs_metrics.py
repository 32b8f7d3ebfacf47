"""Unit tests for the metrics registry and its snapshots."""

import pickle

import pytest

from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
    LabeledRegistry,
    MetricsRegistry,
    base_name,
    is_timing_metric,
    metric_key,
    parse_key,
)


class TestMetricKeys:
    def test_plain_name_is_the_key(self):
        assert metric_key("jobs_total", {}) == "jobs_total"

    def test_labels_render_sorted(self):
        key = metric_key("stage_total", {"stage": "fusion", "a": 1})
        assert key == "stage_total{a=1,stage=fusion}"

    def test_base_name_strips_labels(self):
        assert base_name("wave_seconds{scope=map}") == "wave_seconds"
        assert base_name("runs_total") == "runs_total"

    def test_timing_classification(self):
        assert is_timing_metric("stage_seconds{stage=fusion}")
        assert is_timing_metric("fuse_seconds")
        assert not is_timing_metric("runs_total")
        assert not is_timing_metric("seconds_budget_total")


class TestCounters:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("runs_total").inc()
        registry.counter("runs_total").inc(2)
        assert registry.counter("runs_total").value == 3

    def test_labelled_counters_are_independent(self):
        registry = MetricsRegistry()
        registry.counter("claims_total", extractor="dom").inc(5)
        registry.counter("claims_total", extractor="kb").inc(1)
        snapshot = registry.snapshot()
        assert snapshot.counters["claims_total{extractor=dom}"] == 5
        assert snapshot.counters["claims_total{extractor=kb}"] == 1

    def test_registering_without_inc_pins_a_zero(self):
        registry = MetricsRegistry()
        registry.counter("quarantine_records_total")
        assert registry.snapshot().counters == {
            "quarantine_records_total": 0
        }

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("runs_total").inc(-1)


class TestGauges:
    def test_last_set_wins_locally(self):
        registry = MetricsRegistry()
        registry.gauge("active_sources").set(4)
        registry.gauge("active_sources").set(2)
        assert registry.snapshot().gauges["active_sources"] == 2


class TestHistograms:
    def test_exact_boundary_lands_in_its_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("sizes", buckets=(1, 5, 10))
        for value in (1, 5, 10):  # upper bounds are inclusive
            histogram.observe(value)
        snapshot = registry.snapshot().histograms["sizes"]
        assert snapshot.counts == [1, 1, 1, 0]

    def test_overflow_goes_to_the_inf_slot(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("sizes", buckets=(1, 5))
        histogram.observe(6)
        histogram.observe(5000)
        snapshot = registry.snapshot().histograms["sizes"]
        assert snapshot.counts == [0, 0, 2]
        assert snapshot.count == 2
        assert snapshot.sum == 5006

    def test_default_buckets_follow_timing_convention(self):
        registry = MetricsRegistry()
        registry.histogram("stage_seconds").observe(0.2)
        registry.histogram("component_claims").observe(3)
        snapshots = registry.snapshot().histograms
        assert snapshots["stage_seconds"].bounds == tuple(
            sorted(DEFAULT_SECONDS_BUCKETS)
        )
        assert snapshots["component_claims"].bounds == tuple(
            sorted(DEFAULT_COUNT_BUCKETS)
        )

    def test_conflicting_bounds_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("sizes", buckets=(1, 2))
        with pytest.raises(ValueError):
            registry.histogram("sizes", buckets=(1, 3))
        # Omitting buckets reuses the registered bounds.
        registry.histogram("sizes").observe(1)

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("sizes", buckets=())


def _worker_registry(observations, counter_by):
    registry = MetricsRegistry()
    for value in observations:
        registry.histogram("sizes", buckets=(2, 8)).observe(value)
        registry.counter("records_total").inc()
    for label, amount in counter_by.items():
        registry.counter("per_shard_total", shard=label).inc(amount)
        registry.gauge("peak", shard=label).set(amount)
    return registry


class TestMergeSemantics:
    def test_snapshot_is_a_copy(self):
        registry = MetricsRegistry()
        counter = registry.counter("runs_total")
        counter.inc()
        snapshot = registry.snapshot()
        counter.inc()
        assert snapshot.counters["runs_total"] == 1

    def test_snapshot_pickles(self):
        registry = _worker_registry([1, 5], {"a": 2})
        snapshot = registry.snapshot()
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.to_json_dict() == snapshot.to_json_dict()


class TestDeterministicSubset:
    def test_timing_metrics_are_excluded(self):
        registry = MetricsRegistry()
        registry.counter("runs_total").inc()
        registry.histogram("stage_seconds", stage="fusion").observe(0.5)
        registry.histogram("component_claims").observe(4)
        registry.gauge("fuse_seconds").set(1.0)
        subset = registry.snapshot().deterministic_subset()
        assert "runs_total" in subset["counters"]
        assert "component_claims" in subset["histograms"]
        assert "stage_seconds{stage=fusion}" not in subset["histograms"]
        assert "fuse_seconds" not in subset["gauges"]

    def test_json_dict_is_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zeta_total").inc()
        registry.counter("alpha_total").inc()
        payload = registry.snapshot().to_json_dict()
        assert list(payload["counters"]) == ["alpha_total", "zeta_total"]


class TestParseKey:
    def test_round_trips_metric_key(self):
        key = metric_key("stage_total", {"stage": "fusion", "a": 1})
        name, labels = parse_key(key)
        assert name == "stage_total"
        assert labels == {"a": "1", "stage": "fusion"}
        assert metric_key(name, labels) == key

    def test_plain_name_has_no_labels(self):
        assert parse_key("runs_total") == ("runs_total", {})


class TestLabeledRegistry:
    def test_writes_land_in_the_backing_registry(self):
        registry = MetricsRegistry()
        view = registry.labeled(tenant="t00")
        assert isinstance(view, LabeledRegistry)
        view.counter("stream_published_total").inc(2)
        view.gauge("serving_version").set(3)
        view.histogram("stream_apply_seconds").observe(0.1)
        snapshot = registry.snapshot()
        assert snapshot.counters[
            "stream_published_total{tenant=t00}"
        ] == 2
        assert snapshot.gauges["serving_version{tenant=t00}"] == 3
        assert "stream_apply_seconds{tenant=t00}" in snapshot.histograms

    def test_fixed_labels_win_over_call_site_labels(self):
        registry = MetricsRegistry()
        view = registry.labeled(tenant="t00")
        view.counter("claims_total", tenant="spoof", source="dom").inc()
        assert registry.snapshot().counters == {
            "claims_total{source=dom,tenant=t00}": 1
        }

    def test_views_nest(self):
        registry = MetricsRegistry()
        view = registry.labeled(tenant="t00").labeled(shard="3")
        assert view.labels == {"shard": "3", "tenant": "t00"}
        view.counter("rows_total").inc()
        assert "rows_total{shard=3,tenant=t00}" in (
            registry.snapshot().counters
        )

    def test_snapshot_delegates_to_the_shared_registry(self):
        registry = MetricsRegistry()
        registry.counter("other_total").inc()
        view = registry.labeled(tenant="t00")
        view.counter("stream_published_total").inc()
        assert "other_total" in view.snapshot().counters


class TestLabelSubset:
    def test_filters_every_section_by_label_pair(self):
        registry = MetricsRegistry()
        registry.labeled(tenant="a").counter("stream_total").inc(1)
        registry.labeled(tenant="b").counter("stream_total").inc(5)
        registry.labeled(tenant="a").gauge("serving_version").set(2)
        registry.labeled(tenant="a").histogram("sizes").observe(1)
        registry.counter("unlabeled_total").inc()
        subset = registry.snapshot().label_subset(tenant="a")
        assert subset.counters == {"stream_total{tenant=a}": 1}
        assert subset.gauges == {"serving_version{tenant=a}": 2}
        assert list(subset.histograms) == ["sizes{tenant=a}"]

    def test_subset_requires_every_given_pair(self):
        registry = MetricsRegistry()
        registry.counter("x_total", tenant="a", shard="1").inc()
        registry.counter("x_total", tenant="a", shard="2").inc()
        subset = registry.snapshot().label_subset(tenant="a", shard="2")
        assert list(subset.counters) == ["x_total{shard=2,tenant=a}"]

    def test_subset_composes_with_deterministic_subset(self):
        registry = MetricsRegistry()
        view = registry.labeled(tenant="a")
        view.counter("stream_total").inc()
        view.histogram("stream_apply_seconds").observe(0.5)
        subset = registry.snapshot().label_subset(
            tenant="a"
        ).deterministic_subset()
        assert subset["counters"] == {"stream_total{tenant=a}": 1}
        assert subset["histograms"] == {}
