"""Integration tests: incremental delta-apply through the pipeline.

Runs the full pipeline once on a small world, then drives
:meth:`run_incremental` — checking the engine's byte-identity contract
against the pipeline's own fusion configuration, sequence bookkeeping
across repeated deltas, and the checkpoint/resume composition (a fresh
pipeline process applies the next delta without re-running
extraction).
"""

from types import SimpleNamespace

import pytest

from repro.core.pipeline import (
    IncrementalReport,
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


@pytest.fixture(scope="module")
def incremental_run(tmp_path_factory):
    checkpoint_dir = str(tmp_path_factory.mktemp("incremental-ckpt"))
    pipeline = KnowledgeBaseConstructionPipeline(
        _config(checkpoint_dir=checkpoint_dir)
    )
    run_report = pipeline.run()
    first = pipeline.run_incremental(
        _delta(pipeline.all_triples, "incremental-town")
    )
    second = pipeline.run_incremental(
        _delta(pipeline.all_triples, "incremental-city", retract_first=False)
    )
    return SimpleNamespace(
        checkpoint_dir=checkpoint_dir,
        pipeline=pipeline,
        run_report=run_report,
        first=first,
        second=second,
    )


class TestRunIncremental:
    def test_returns_incremental_reports(self, incremental_run):
        assert isinstance(incremental_run.first, IncrementalReport)
        assert isinstance(incremental_run.second, IncrementalReport)

    def test_first_call_primes_later_calls_reuse(self, incremental_run):
        assert incremental_run.first.primed
        assert incremental_run.first.resumed_from is None  # in-memory claims
        assert not incremental_run.second.primed

    def test_sequence_advances(self, incremental_run):
        assert incremental_run.first.sequence == 1
        assert incremental_run.second.sequence == 2

    def test_delta_content_landed_in_claim_corpus(self, incremental_run):
        values = {
            scored.triple.obj.lexical
            for scored in incremental_run.pipeline.all_triples
        }
        assert "incremental-town" in values
        assert "incremental-city" in values

    def test_result_matches_full_refusion_of_post_delta_store(
        self, incremental_run
    ):
        pipeline = incremental_run.pipeline
        engine = pipeline.incremental_fusion.incremental
        claims = canonical_claims(engine.store.copy())
        reference_fusion = pipeline._build_fusion(
            pipeline._select_functional_oracle(claims)
        )
        reference = reference_fusion.fuse(claims)
        assert (
            incremental_run.second.fusion_result.canonical_bytes()
            == reference.canonical_bytes()
        )

    def test_fusion_still_scores_against_world(self, incremental_run):
        report = incremental_run.second.fusion_report
        assert report.items > 0
        assert report.precision > 0.5

    def test_report_json_shape(self, incremental_run):
        payload = incremental_run.first.to_json_dict()
        assert payload["sequence"] == 1
        assert payload["primed"] is True
        assert payload["outcome"]["receipt"]["added"] == 1
        assert payload["fusion"]["items"] > 0

    def test_outcome_accounting(self, incremental_run):
        outcome = incremental_run.first.outcome
        assert outcome.receipt.added == 1
        assert outcome.receipt.removed_claims >= 1
        assert outcome.components >= 1
        assert 1 <= outcome.dirty_components <= outcome.components


class TestResumeComposition:
    def test_fresh_process_resumes_from_incremental_checkpoint(
        self, incremental_run
    ):
        resumed = KnowledgeBaseConstructionPipeline(
            _config(checkpoint_dir=incremental_run.checkpoint_dir)
        )
        # No run(): the claim corpus comes from the checkpoint.
        report = resumed.run_incremental(
            _delta(
                incremental_run.pipeline.all_triples,
                "incremental-village",
                retract_first=False,
            ),
            resume=True,
        )
        assert report.primed
        assert report.resumed_from == "incremental"
        # Sequence keeps counting across processes.
        assert report.sequence == incremental_run.second.sequence + 1
        values = {
            scored.triple.obj.lexical for scored in resumed.all_triples
        }
        assert {"incremental-town", "incremental-city",
                "incremental-village"} <= values

    def test_no_claims_and_no_checkpoint_rejected(self):
        pipeline = KnowledgeBaseConstructionPipeline(_config())
        with pytest.raises(PipelineError):
            pipeline.run_incremental(ClaimDelta())

    def test_resume_without_checkpoint_dir_rejected(self):
        pipeline = KnowledgeBaseConstructionPipeline(_config())
        with pytest.raises(PipelineError):
            pipeline.run_incremental(ClaimDelta(), resume=True)

    def test_resume_with_empty_checkpoint_dir_rejected(self, tmp_path):
        pipeline = KnowledgeBaseConstructionPipeline(
            _config(checkpoint_dir=str(tmp_path / "empty"))
        )
        with pytest.raises(PipelineError):
            pipeline.run_incremental(ClaimDelta(), resume=True)


class TestConfigCheckedWithoutRun:
    """``serve()`` and ``run_incremental()`` check the config ``run()``
    checks: they are entered without one (drift runs, the e2e
    benchmark), and a misspelt backend used to serve from memory."""

    def _with_claims(self, incremental_run, **overrides):
        pipeline = KnowledgeBaseConstructionPipeline(_config(**overrides))
        pipeline.all_triples = list(incremental_run.pipeline.all_triples)
        return pipeline

    def test_unknown_backend_rejected_by_serve(self, incremental_run):
        pipeline = self._with_claims(
            incremental_run, storage_backend="sgement"
        )
        with pytest.raises(PipelineError, match="storage_backend must be"):
            pipeline.serve()

    def test_unknown_backend_rejected_by_resumed_run_incremental(
        self, incremental_run
    ):
        pipeline = KnowledgeBaseConstructionPipeline(
            _config(
                checkpoint_dir=incremental_run.checkpoint_dir,
                storage_backend="sgement",
            )
        )
        with pytest.raises(PipelineError, match="storage_backend must be"):
            pipeline.run_incremental(ClaimDelta(), resume=True)

    def test_segment_backend_without_dir_names_the_field(
        self, incremental_run
    ):
        pipeline = self._with_claims(
            incremental_run, storage_backend="segment"
        )
        with pytest.raises(PipelineError, match="storage_dir"):
            pipeline.serve()

    def test_mistyped_functionality_source_rejected_before_any_stage(
        self, incremental_run
    ):
        def mistyped():
            return self._with_claims(
                incremental_run, functionality_source="schema "
            )

        pipeline = mistyped()
        with pytest.raises(PipelineError, match="functionality_source must"):
            pipeline.run()
        assert pipeline.last_report.timings == []
        with pytest.raises(PipelineError, match="functionality_source must"):
            mistyped().serve()
        with pytest.raises(PipelineError, match="functionality_source must"):
            mistyped().run_incremental(ClaimDelta())


class TestServeBuildsNoClaimSetOfItsOwn:
    """The engine canonicalizes the corpus itself; a ``ClaimSet`` of
    every claim built beside it is read by nobody, and on a web-sized
    corpus its claims and key tuples outlive the prime as work for
    the collector."""

    @pytest.mark.parametrize("source", ["schema", "estimated"])
    def test_serve_builds_no_claim_set_outside_the_engine(
        self, incremental_run, monkeypatch, source
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

        pipeline = KnowledgeBaseConstructionPipeline(
            _config(functionality_source=source)
        )
        pipeline.all_triples = list(incremental_run.pipeline.all_triples)
        monkeypatch.setattr(pipeline_module, "ClaimSet", Spy)
        engine = pipeline.serve().engine
        assert built == []
        # ... and the oracle is still the configured one.
        decided = {predicate for _subject, predicate in engine.result.truths}
        assert (engine.functional_refresh is not None) == (
            source == "estimated"
        )
        if source == "schema":
            schema = pipeline._functional_oracle()
            assert [
                engine.fusion.functional_of(predicate)
                for predicate in sorted(decided)
            ] == [schema(predicate) for predicate in sorted(decided)]
        assert engine.result.canonical_bytes() == (
            pipeline._build_fusion(engine.fusion.functional_of)
            .fuse(canonical_claims(engine.store.copy()))
            .canonical_bytes()
        )
