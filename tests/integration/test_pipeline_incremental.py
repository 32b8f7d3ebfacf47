"""Integration tests: deltas served on top of a pipeline run.

Runs the full pipeline once on a small world, then publishes deltas to
:meth:`serve`'s server — the one way a built KB changes — checking the
engine's byte-identity contract against the pipeline's own fusion
configuration, version and sequence bookkeeping across repeated
deltas, and crash recovery: a fresh pipeline process resumes the run
from its checkpoint without re-extraction, re-publishes the deltas and
ends on the same bytes.
"""

from types import SimpleNamespace

import pytest

from repro.core.pipeline import (
    KnowledgeBaseConstructionPipeline,
    PipelineConfig,
)
from repro.errors import PipelineError
from repro.fusion.base import ClaimSet
from repro.incremental import ClaimDelta, canonical_claims
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value
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
        fusion_tolerance=0.0,  # the byte-identity regime
        **overrides,
    )


def _delta(all_triples, value, *, retract_first=True):
    ordered = sorted(
        all_triples,
        key=lambda s: (s.triple.subject, s.triple.predicate, s.triple.obj.lexical),
    )
    first = ordered[0]
    added = [
        ScoredTriple(
            Triple(first.triple.subject, first.triple.predicate, Value(value)),
            Provenance(
                first.provenance.source_id, first.provenance.extractor_id
            ),
            0.7,
        )
    ]
    retracted = [ordered[-1].triple] if retract_first else []
    return ClaimDelta(added=added, retracted=retracted, label=value)


def _deltas(all_triples):
    return [
        _delta(all_triples, "incremental-town"),
        _delta(all_triples, "incremental-city", retract_first=False),
    ]


def _serve(pipeline, deltas):
    """Publish and apply each delta in turn; the outcome of each."""
    server = pipeline.serve()
    outcomes = []
    for delta in deltas:
        server.publish(delta)
        (outcome,) = server.drain()
        outcomes.append(outcome)
    return server, outcomes


@pytest.fixture(scope="module")
def incremental_run(tmp_path_factory):
    checkpoint_dir = str(tmp_path_factory.mktemp("incremental-ckpt"))
    pipeline = KnowledgeBaseConstructionPipeline(
        _config(checkpoint_dir=checkpoint_dir)
    )
    run_report = pipeline.run()
    base = list(pipeline.all_triples)
    server, outcomes = _serve(pipeline, _deltas(base))
    return SimpleNamespace(
        checkpoint_dir=checkpoint_dir,
        pipeline=pipeline,
        run_report=run_report,
        base=base,
        server=server,
        outcomes=outcomes,
    )


class TestRunIncremental:
    """A ``run()``, then two deltas through ``serve()``."""

    def test_first_call_primes_later_calls_reuse(self, incremental_run):
        engine = incremental_run.server.engine
        assert incremental_run.pipeline.serve().engine is engine
        assert engine.sequence == 2

    def test_sequence_advances(self, incremental_run):
        assert [
            (outcome.action, outcome.version_id, outcome.sequence)
            for outcome in incremental_run.outcomes
        ] == [("applied", 1, 1), ("applied", 2, 2)]
        current = incremental_run.server.versions.current
        assert (current.version_id, current.sequence) == (2, 2)

    def test_delta_content_landed_in_claim_corpus(self, incremental_run):
        values = {
            scored.triple.obj.lexical
            for scored in incremental_run.server.engine.store.claims()
        }
        assert {"incremental-town", "incremental-city"} <= values

    def test_result_matches_full_refusion_of_post_delta_store(
        self, incremental_run
    ):
        pipeline = incremental_run.pipeline
        served = incremental_run.server.versions.current
        claims = canonical_claims(served.store.copy())
        reference = pipeline._build_fusion().fuse(claims)
        assert (
            served.result.canonical_bytes() == reference.canonical_bytes()
        )

    def test_fusion_still_scores_against_world(self, incremental_run):
        from repro.evalx.metrics import evaluate_fusion

        pipeline = incremental_run.pipeline
        report = evaluate_fusion(
            pipeline.world, incremental_run.server.versions.current.result
        )
        assert report.items > 0
        assert report.f1 > 0.5

    def test_outcome_accounting(self, incremental_run):
        engine = incremental_run.server.engine
        assert engine.sequence == 2
        assert incremental_run.server.versions.current.label == (
            "incremental-city"
        )
        metrics = incremental_run.pipeline.metrics.snapshot().to_json_dict()
        counters = metrics["counters"]
        assert counters["incremental_deltas_total"] == 2
        assert counters["incremental_dirty_components"] >= 2
        # One new claim per delta; only the first one retracts.
        assert counters["incremental_claims_added_total"] == 2
        assert counters["incremental_claims_removed_total"] >= 1
        assert (
            metrics["gauges"]["incremental_components"]
            == engine.components
        )


class TestRunAndServeFuseOneOrder:
    def test_run_bytes_equal_serves_version_zero(self):
        """``run()`` fuses the pipeline's claim list, ``serve()`` primes
        over the store's claims: one canonical claim order makes them
        the same fuse."""
        pipeline = KnowledgeBaseConstructionPipeline(_config())
        report = pipeline.run()
        version = pipeline.serve().versions.current
        assert version.version_id == 0
        assert (
            version.canonical_bytes()
            == report.fusion_result.canonical_bytes()
        )


class TestResumeComposition:
    def test_fresh_process_resumes_from_claims_and_replays_deltas(
        self, incremental_run
    ):
        """Crash recovery: ``run(resume=True)`` restores the claims
        checkpoint without re-extraction, and the deltas are published
        again."""
        resumed = KnowledgeBaseConstructionPipeline(
            _config(checkpoint_dir=incremental_run.checkpoint_dir)
        )
        report = resumed.run(resume=True)
        assert report.health.resumed_stages == ["extraction", "claims"]
        server, outcomes = _serve(
            resumed, _deltas(incremental_run.base)
        )
        assert [outcome.action for outcome in outcomes] == [
            "applied", "applied",
        ]
        assert (
            server.versions.current.result.canonical_bytes()
            == incremental_run.server.versions.current.result
            .canonical_bytes()
        )

    def test_no_claims_and_no_checkpoint_rejected(self):
        pipeline = KnowledgeBaseConstructionPipeline(_config())
        with pytest.raises(PipelineError, match="call run"):
            pipeline.serve()

    def test_resume_without_checkpoint_dir_rejected(self):
        """Rejected before any stage, not silently recomputed."""
        pipeline = KnowledgeBaseConstructionPipeline(_config())
        with pytest.raises(PipelineError, match="checkpoint_dir"):
            pipeline.run(resume=True)
        assert pipeline.last_report.timings == []


class TestConfigCheckedWithoutRun:
    """``serve()`` checks the config ``run()`` checks: it is entered
    without one (drift runs, the e2e benchmark).  The config names no
    backend: a storage directory is what puts the served claims on
    segments."""

    def _with_claims(self, incremental_run, **overrides):
        pipeline = KnowledgeBaseConstructionPipeline(_config(**overrides))
        pipeline.all_triples = list(incremental_run.base)
        return pipeline

    def test_serve_rejects_a_bad_memtable_limit(self, incremental_run):
        pipeline = self._with_claims(incremental_run, memtable_limit=0)
        with pytest.raises(PipelineError, match="memtable_limit must be"):
            pipeline.serve()

    def test_a_storage_dir_serves_from_segments(
        self, incremental_run, tmp_path
    ):
        from repro.rdf.segments import SegmentBackend

        pipeline = self._with_claims(
            incremental_run, storage_dir=str(tmp_path / "segs")
        )
        server = pipeline.serve()
        try:
            assert isinstance(server.engine.store.backend, SegmentBackend)
            assert (
                server.versions.current.result.canonical_bytes()
                == self._with_claims(incremental_run).serve()
                .versions.current.result.canonical_bytes()
            )
        finally:
            server.engine.store.close()

    def test_run_rejects_a_bad_memtable_limit_before_any_stage(
        self, incremental_run
    ):
        pipeline = self._with_claims(incremental_run, memtable_limit=0)
        with pytest.raises(PipelineError, match="memtable_limit must"):
            pipeline.run()
        assert pipeline.last_report.timings == []


class TestServeBuildsNoClaimSetOfItsOwn:
    """The engine canonicalizes the corpus itself; a ``ClaimSet`` of
    every claim built beside it is read by nobody, and on a web-sized
    corpus its claims and key tuples outlive the prime as work for
    the collector."""

    def test_serve_builds_no_claim_set_outside_the_engine(
        self, incremental_run, monkeypatch
    ):
        import repro.core.pipeline as pipeline_module

        built = []

        class Spy(ClaimSet):
            """What ``core/pipeline.py`` reaches through its own
            ``ClaimSet`` name; the engine imports the real one."""

            def __init__(self, claims=()):
                built.append("ClaimSet()")
                super().__init__(claims)

            @staticmethod
            def from_scored_triples(triples):
                built.append("from_scored_triples")
                return ClaimSet.from_scored_triples(triples)

        pipeline = KnowledgeBaseConstructionPipeline(_config())
        pipeline.all_triples = list(incremental_run.base)
        monkeypatch.setattr(pipeline_module, "ClaimSet", Spy)
        engine = pipeline.serve().engine
        assert built == []
        # ... and the oracle is still the schema's.
        decided = {predicate for _subject, predicate in engine.result.truths}
        schema = pipeline._build_fusion().functional_of
        assert [
            engine.functional_of(predicate) for predicate in sorted(decided)
        ] == [schema(predicate) for predicate in sorted(decided)]
        assert engine.result.canonical_bytes() == (
            pipeline._build_fusion()
            .fuse(canonical_claims(engine.store.copy()))
            .canonical_bytes()
        )
