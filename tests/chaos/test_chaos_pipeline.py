"""Chaos tests for the end-to-end pipeline's fault-tolerance layer.

The acceptance contract, verified against a real (small) world:

* a seeded fault plan with a map-task crash and a corrupted input
  record, run with retries + quarantine enabled, completes with output
  byte-identical to the fault-free run;
* the same plan with retries disabled raises RetryExhaustedError;
* a crashed extractor degrades its source and fusion proceeds with the
  rest — unless fewer than ``min_sources`` survive (PipelineError);
* a run that crashes mid-pipeline resumes from its checkpoints,
  skipping completed stages, with identical fused output; a changed
  seed invalidates the checkpoints.

The corrupted record targets a noise query (``gold_class is None``), so
quarantining it must not change a single claim — which is exactly what
makes byte-identity checkable.
"""

import json

import pytest

from repro.core.pipeline import (
    KnowledgeBaseConstructionPipeline,
    PipelineConfig,
)
from repro.errors import FusionError, PipelineError, RetryExhaustedError
from repro.extract.dom import DomTreeExtractor
from repro.extract.webtext import WebTextExtractor
from repro.faults import FaultPlan, InjectedFault, RetryPolicy
from repro.synth.querylog import QueryLogConfig, generate_query_log
from repro.synth.websites import WebsiteConfig
from repro.synth.webtext import WebTextConfig
from repro.synth.world import WorldConfig
from tests.conftest import run_python


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


def _claim_signature(pipeline):
    return sorted(
        (claim.item, claim.value, claim.source_id, claim.extractor_id,
         claim.confidence)
        for claim in pipeline.claims
    )


def _fused_signature(report):
    result = report.fusion_result
    return (
        {item: sorted(values) for item, values in result.truths.items()},
        result.belief,
    )


def _deterministic(report) -> dict:
    """``to_json_dict()`` without its wall-clock fields."""
    payload = report.to_json_dict()
    for timed in (
        "timings", "wall_seconds", "cumulative_stage_seconds", "fusion_wall",
    ):
        del payload[timed]
    return payload


def _kb_signature(snapshot) -> tuple:
    return (
        snapshot.kb_id, snapshot.naming, snapshot.classes,
        list(snapshot.store),
    )


@pytest.fixture(scope="module")
def baseline():
    pipeline = KnowledgeBaseConstructionPipeline(_config())
    report = pipeline.run()
    return pipeline, report


def _first_noise_record(world) -> int:
    """Index of the first noise query record (contributes no claims)."""
    log = generate_query_log(world, _config().querylog)
    return next(
        i for i, record in enumerate(log) if record.gold_class is None
    )


@pytest.fixture(scope="module")
def noise_record_index(baseline):
    pipeline, _ = baseline
    return _first_noise_record(pipeline.world)


def _chaos_plan(noise_index: int) -> FaultPlan:
    # A transient crash in each phase of the build's fusion job (its
    # map task and its first reduce chunk) and >= 1 corrupted
    # input record, per the acceptance scenario.
    return (
        FaultPlan(seed=11)
        .corrupt("records:querystream", index=noise_index)
        .crash("map", index=0, attempts=1)
        .crash("reduce", index=0, attempts=1)
    )


class TestByteIdenticalChaosRun:
    @pytest.fixture(scope="class")
    def chaotic(self, noise_record_index):
        config = _config(
            fault_plan=_chaos_plan(noise_record_index),
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        )
        pipeline = KnowledgeBaseConstructionPipeline(config)
        report = pipeline.run()
        return pipeline, report

    def test_output_is_byte_identical_to_fault_free_run(
        self, baseline, chaotic
    ):
        base_pipeline, base_report = baseline
        chaos_pipeline, chaos_report = chaotic
        assert _claim_signature(chaos_pipeline) == _claim_signature(
            base_pipeline
        )
        assert _fused_signature(chaos_report) == _fused_signature(
            base_report
        )

    def test_faults_were_actually_exercised(self, chaotic):
        _, report = chaotic
        health = report.health
        assert health.quarantined["total"] == 1
        assert health.quarantined["counts"] == {"querystream": 1}
        assert health.retry["retries"] >= 2  # a map and a reduce task
        assert health.status == "ok"  # no stage degraded, just retried

    def test_same_seed_chaos_runs_are_identical(
        self, chaotic, noise_record_index
    ):
        # Determinism double-run: a second run under the same fault
        # plan reproduces the deterministic report subset exactly.
        config = _config(
            fault_plan=_chaos_plan(noise_record_index),
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        )
        rerun = KnowledgeBaseConstructionPipeline(config)
        rerun_report = rerun.run()
        first_pipeline, first_report = chaotic
        assert _claim_signature(rerun) == _claim_signature(first_pipeline)
        first_json = first_report.to_json_dict()
        rerun_json = rerun_report.to_json_dict()
        for key in (
            "seed_sizes", "attribute_counts", "triple_counts",
            "fused_items", "health",
        ):
            assert rerun_json[key] == first_json[key]
        # The count-type metrics (retry/quarantine/fusion counters
        # included) must also be byte-identical under chaos; only the
        # *_seconds metrics may differ between the runs.
        assert json.dumps(
            rerun_report.metrics.deterministic_subset(), sort_keys=True
        ) == json.dumps(
            first_report.metrics.deterministic_subset(), sort_keys=True
        )
        assert (
            rerun_report.metrics.counters["mapreduce_retries_total"] >= 1
        )

    def test_deterministic_sections_do_not_depend_on_the_hash_seed(self):
        # Two processes, two hash seeds, one chaos plan (the run of
        # tests/chaos/chaos_build.py, checkpoints on): the report's
        # clock-free sections and the count-type metrics are the same
        # bytes, and both exports satisfy their schemas.
        first, second = (
            json.loads(
                run_python(
                    "-m", "tests.chaos.chaos_build", hash_seed=hash_seed
                )
            )
            for hash_seed in (1, 2)
        )
        assert first["schema_problems"] == []
        assert first["report"]["health"]["retry"]["retries"] >= 1
        assert first["report"] == second["report"]
        assert first["deterministic_subset"] == second["deterministic_subset"]

    def test_same_plan_without_retries_is_fatal(self, noise_record_index):
        config = _config(fault_plan=_chaos_plan(noise_record_index))
        with pytest.raises(RetryExhaustedError):
            KnowledgeBaseConstructionPipeline(config).run()


class TestGracefulDegradation:
    def test_crashed_extractor_degrades_and_fusion_continues(self):
        plan = FaultPlan(seed=7).crash(
            "stage:webtext-extraction", attempts=0
        )
        pipeline = KnowledgeBaseConstructionPipeline(
            _config(fault_plan=plan)
        )
        report = pipeline.run()
        health = report.health
        assert health.status == "degraded"
        assert "webtext-extraction" in health.degraded
        assert health.active_sources == ["dom", "kb", "querystream"]
        assert report.fusion_result is not None
        assert report.fusion_report is not None
        assert "webtext" not in report.triple_counts

    def test_slow_stage_times_out_deterministically(self):
        # 99 injected seconds against a 5s deadline — degraded via the
        # reported duration, without any real waiting.
        plan = FaultPlan(seed=7).slow(
            "stage:dom-extraction", seconds=99.0, attempts=0
        )
        pipeline = KnowledgeBaseConstructionPipeline(
            _config(fault_plan=plan, stage_timeout=5.0)
        )
        report = pipeline.run()
        assert "dom-extraction" in report.health.degraded
        assert "StageTimeoutError" in report.health.degraded[
            "dom-extraction"
        ]
        # The overrun stage's output is kept out of the run, though its
        # body returned one before the deadline was checked.
        assert "dom" not in report.health.active_sources
        assert all(
            scored.provenance.extractor_id != "dom"
            for scored in pipeline.all_triples
        )
        assert "dom" not in report.triple_counts

    @pytest.mark.parametrize(
        "source, scope, stage, extractor",
        [
            ("dom", "records:dom", "dom-extraction", DomTreeExtractor),
            (
                "webtext", "records:webtext", "webtext-extraction",
                WebTextExtractor,
            ),
        ],
    )
    def test_records_diverted_before_a_crash_stay_counted(
        self, monkeypatch, source, scope, stage, extractor
    ):
        """Regression: these two stages diverted into a stage-local
        sink that reached the run's quarantine only if the stage
        returned, so a crash after the record guard lost the count."""

        def crash(self, *_args):
            raise RuntimeError("extractor died")

        monkeypatch.setattr(extractor, "extract", crash)
        plan = FaultPlan(seed=7).corrupt(scope, index=0)
        report = KnowledgeBaseConstructionPipeline(
            _config(fault_plan=plan)
        ).run()
        assert report.health.degraded[stage] == (
            "RuntimeError: extractor died"
        )
        assert report.health.quarantined["counts"] == {source: 1}
        assert report.metrics.counters[
            f"quarantine_diverted_total{{source={source}}}"
        ] == 1

    @pytest.mark.parametrize(
        "stage, source",
        [("kb-extraction", "kb"), ("webtext-extraction", "webtext")],
    )
    def test_second_run_does_not_fuse_the_first_runs_outputs(
        self, stage, source
    ):
        """Regression: ``outputs`` / ``freebase`` / ... were set in
        ``__init__`` only, so a source that degraded in a second
        ``run()`` on the same object was still fused from the first."""
        plan = FaultPlan().crash(f"stage:{stage}", attempts=0)

        def last_report(pipeline):
            try:
                pipeline.run()
            except FusionError:
                # Without the KB's entities nothing extracts a claim.
                assert source == "kb"
            return pipeline.last_report

        fresh = last_report(
            KnowledgeBaseConstructionPipeline(_config(fault_plan=plan))
        )
        pipeline = KnowledgeBaseConstructionPipeline(_config())
        pipeline.run()
        pipeline.config.fault_plan = plan
        second = last_report(pipeline)
        assert stage in second.health.degraded
        assert source not in second.health.active_sources
        assert _deterministic(second) == _deterministic(fresh)

    def test_running_twice_equals_running_once(self, baseline):
        _pipeline, once = baseline
        pipeline = KnowledgeBaseConstructionPipeline(_config())
        pipeline.run()
        twice = pipeline.run()
        assert _deterministic(twice) == _deterministic(once)
        assert _fused_signature(twice) == _fused_signature(once)

    def test_a_fusion_task_that_never_succeeds_fails_the_run(self):
        # Every retry fails the reduce chunk: the run raises and books
        # the fusion stage as failed rather than fusing a part of the
        # claim graph.
        pipeline = KnowledgeBaseConstructionPipeline(
            _config(
                retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
                fault_plan=FaultPlan().crash("reduce", index=0, attempts=0),
            )
        )
        with pytest.raises(RetryExhaustedError):
            pipeline.run()
        report = pipeline.last_report
        assert "fusion" in report.health.degraded
        assert report.fusion_result is None

    @pytest.mark.parametrize(
        "scope",
        [
            "stage:entity-resolution",
            "stage:attribute-resolution",
            "stage:confidence",
            "stage:evaluation",
            "stage:augmentation",
        ],
    )
    def test_a_crashed_downstream_stage_fails_the_run(self, scope):
        # Stages after extraction feed everything downstream: a crash
        # there is booked, then raised (checkpoint/resume recovers).
        stage = scope.removeprefix("stage:")
        pipeline = KnowledgeBaseConstructionPipeline(
            _config(
                fault_plan=FaultPlan(seed=7).crash(scope, attempts=0),
                discover_new_entities=stage == "entity-resolution",
            )
        )
        with pytest.raises(InjectedFault):
            pipeline.run()
        report = pipeline.last_report
        assert stage in report.health.degraded
        (timing,) = [t for t in report.timings if t.stage == stage]
        assert "failed: InjectedFault" in timing.detail

    def test_below_min_sources_floor_raises(self):
        plan = (
            FaultPlan(seed=7)
            .crash("stage:kb-extraction", attempts=0)
            .crash("stage:query-stream", attempts=0)
            .crash("stage:dom-extraction", attempts=0)
        )
        config = _config(fault_plan=plan, min_sources=2)
        with pytest.raises(PipelineError, match="min_sources"):
            KnowledgeBaseConstructionPipeline(config).run()


class TestCheckpointResume:
    def test_resume_after_mid_pipeline_crash_skips_stages(
        self, baseline, tmp_path
    ):
        crash_config = _config(
            fault_plan=FaultPlan(seed=3).crash("stage:fusion", attempts=0),
            checkpoint_dir=str(tmp_path),
        )
        with pytest.raises(InjectedFault):
            KnowledgeBaseConstructionPipeline(crash_config).run()

        resumed = KnowledgeBaseConstructionPipeline(
            _config(checkpoint_dir=str(tmp_path))
        )
        report = resumed.run(resume=True)
        assert report.health.resumed_stages == ["extraction", "claims"]
        # Extraction stages were skipped: no extraction timings.
        assert [t.stage for t in report.timings] == [
            "fusion", "evaluation", "augmentation",
        ]
        base_pipeline, base_report = baseline
        assert _claim_signature(resumed) == _claim_signature(base_pipeline)
        assert _fused_signature(report) == _fused_signature(base_report)
        # The checkpoint holds no KB snapshot: the resumed run augments
        # a copy of the one it builds, and ends on the baseline's KB.
        assert _kb_signature(resumed.freebase) == _kb_signature(
            base_pipeline.freebase
        )

    def test_changed_seed_invalidates_checkpoints(self, tmp_path):
        first = _config(checkpoint_dir=str(tmp_path))
        KnowledgeBaseConstructionPipeline(first).run()

        reseeded = _config(checkpoint_dir=str(tmp_path))
        reseeded.world = WorldConfig(
            seed=99,
            entities_per_class={
                "Book": 15, "Film": 15, "Country": 12,
                "University": 12, "Hotel": 10,
            },
        )
        report = KnowledgeBaseConstructionPipeline(reseeded).run(
            resume=True
        )
        assert report.health.resumed_stages == []

    def test_degraded_runs_never_write_checkpoints(self, tmp_path):
        plan = FaultPlan(seed=7).crash(
            "stage:webtext-extraction", attempts=0
        )
        config = _config(fault_plan=plan, checkpoint_dir=str(tmp_path))
        KnowledgeBaseConstructionPipeline(config).run()
        assert list(tmp_path.iterdir()) == []
