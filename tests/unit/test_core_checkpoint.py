"""Unit tests for the fingerprinted checkpoint store."""

import os
import time

from repro.core.checkpoint import CheckpointStore, config_fingerprint
from repro.obs import MetricsRegistry
from repro.core.pipeline import PipelineConfig
from repro.faults import FaultPlan, RetryPolicy
from repro.synth.world import WorldConfig


class TestConfigFingerprint:
    def test_identical_configs_share_a_fingerprint(self):
        assert config_fingerprint(PipelineConfig()) == config_fingerprint(
            PipelineConfig()
        )

    def test_changed_seed_changes_the_fingerprint(self):
        base = PipelineConfig()
        reseeded = PipelineConfig(world=WorldConfig(seed=999))
        assert config_fingerprint(base) != config_fingerprint(reseeded)

    def test_changed_extraction_toggle_changes_the_fingerprint(self):
        base = PipelineConfig()
        toggled = PipelineConfig(discover_new_entities=True)
        assert config_fingerprint(base) != config_fingerprint(toggled)

    def test_execution_knobs_do_not_change_the_fingerprint(self):
        # A run interrupted by an injected fault (or run with sharded
        # fusion) must be resumable by a clean config.
        base = PipelineConfig()
        execution_only = PipelineConfig(
            retry=RetryPolicy(max_attempts=5),
            fault_plan=FaultPlan(seed=1).crash("stage:fusion"),
            checkpoint_dir="/tmp/somewhere",
            stage_timeout=30.0,
            min_sources=2,
            storage_dir="/tmp/segments",
        )
        assert config_fingerprint(base) == config_fingerprint(execution_only)


class TestCheckpointStore:
    def test_save_then_load_round_trips(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp-1")
        payload = {"numbers": [1, 2, 3], "name": "extraction"}
        store.save("extraction", payload)
        assert store.load("extraction") == payload

    def test_missing_stage_loads_none(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp-1")
        assert store.load("claims") is None

    def test_fingerprint_mismatch_is_treated_as_absent(self, tmp_path):
        CheckpointStore(tmp_path, "fp-old").save("extraction", {"x": 1})
        assert CheckpointStore(tmp_path, "fp-new").load("extraction") is None

    def test_corrupt_file_is_treated_as_absent(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp-1")
        store.save("extraction", {"x": 1})
        store.path("extraction").write_bytes(b"\x00 not a pickle")
        assert store.load("extraction") is None

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp-1")
        store.save("claims", list(range(100)))
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == ["claims.ckpt"]


class TestTempFileHygiene:
    """Regression: a crash mid-save orphaned ``.tmp`` files forever."""

    def _orphan(self, tmp_path, name: str, *, age: float = 3600.0):
        orphan = tmp_path / name
        orphan.write_bytes(b"half-written")
        stale = time.time() - age
        os.utime(orphan, (stale, stale))
        return orphan

    def test_save_sweeps_stale_orphans_of_its_stage(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp-1")
        self._orphan(tmp_path, "claims.ckpt.999.0.tmp")
        self._orphan(tmp_path, "claims.ckpt.tmp")  # legacy naming
        other = self._orphan(tmp_path, "extraction.ckpt.999.0.tmp")
        store.save("claims", {"x": 1})
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["claims.ckpt", other.name]

    def test_save_leaves_fresh_temps_alone(self, tmp_path):
        # A just-written temp may belong to a live concurrent writer:
        # deleting it would crash that writer's os.replace.
        store = CheckpointStore(tmp_path, "fp-1")
        live = self._orphan(tmp_path, "claims.ckpt.998.7.tmp", age=0.0)
        store.save("claims", {"x": 1})
        assert live.exists()

    def test_temp_names_unique_across_stores_in_one_process(self, tmp_path):
        # Two stores sharing a directory must never mint the same temp
        # name, or one's os.replace could ship the other's bytes.
        first = CheckpointStore(tmp_path, "fp-1")
        second = CheckpointStore(tmp_path, "fp-2")
        names = {
            first._temp_path("claims").name,
            second._temp_path("claims").name,
            first._temp_path("claims").name,
        }
        assert len(names) == 3

    def test_metrics_count_store_traffic(self, tmp_path):
        registry = MetricsRegistry()
        store = CheckpointStore(tmp_path, "fp-1", metrics=registry)
        self._orphan(tmp_path, "claims.ckpt.999.0.tmp")
        store.save("claims", {"x": 1})
        assert store.load("claims") == {"x": 1}
        store.load("extraction")  # miss
        stale = CheckpointStore(tmp_path, "fp-other", metrics=registry)
        stale.load("claims")  # fingerprint mismatch
        counters = registry.snapshot().counters
        assert counters["checkpoint_saves_total{stage=claims}"] == 1
        assert counters["checkpoint_loads_total{stage=claims}"] == 1
        assert counters["checkpoint_misses_total{stage=extraction}"] == 1
        assert counters["checkpoint_stale_total{stage=claims}"] == 1
        assert counters["checkpoint_temps_swept_total"] == 1
