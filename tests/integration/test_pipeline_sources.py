"""The pipeline's sources are inputs: built once, on first read, and
never written by a run.

The KB pair, the websites and the Web texts are built by the
generators ``repro.core.pipeline`` calls through its ``SOURCES``
table; the query log stays a per-run stream.  These tests count those
calls by patching the generator names in the pipeline module, check
that a faulted run and augmentation leave the held sources as built,
and that the extraction checkpoint no longer carries KB snapshots.
"""

import io
import pickle

import pytest

from repro.core import pipeline as pipeline_module
from repro.core.checkpoint import CheckpointStore, config_fingerprint
from repro.core.pipeline import KnowledgeBaseConstructionPipeline
from repro.faults import FaultPlan
from repro.synth.kb_snapshots import KbClassView, KbSnapshot, build_kb_pair
from tests.chaos.test_chaos_pipeline import (
    _config,
    _deterministic,
    _kb_signature,
)

GENERATORS = (
    "build_kb_pair", "generate_query_log", "generate_websites",
    "generate_webtext",
)


@pytest.fixture(scope="module")
def clean():
    pipeline = KnowledgeBaseConstructionPipeline(_config())
    report = pipeline.run()
    return pipeline, report


@pytest.fixture
def generator_calls(monkeypatch):
    """Calls per generator name, counted where the pipeline calls it."""
    calls = dict.fromkeys(GENERATORS, 0)
    for name in GENERATORS:
        generate = getattr(pipeline_module, name)

        def counted(*args, _name=name, _generate=generate, **kwargs):
            calls[_name] += 1
            return _generate(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, name, counted)
    return calls


class TestNoRunWritesIntoASource:
    def test_a_faulted_run_does_not_damage_the_next(self, clean):
        # A corrupted page and document are quarantined in the first
        # run; guarded back into a held site, the page would be missing
        # from the second, clean run too.
        plan = (
            FaultPlan(seed=5)
            .corrupt("records:dom", index=0)
            .corrupt("records:webtext", index=0)
        )
        pipeline = KnowledgeBaseConstructionPipeline(_config(fault_plan=plan))
        faulted = pipeline.run()
        assert faulted.health.quarantined["counts"] == {
            "dom": 1, "webtext": 1,
        }
        pipeline.config.fault_plan = None
        second = pipeline.run()
        _, fresh = clean
        assert _deterministic(second) == _deterministic(fresh)
        assert (
            second.fusion_result.canonical_bytes()
            == fresh.fusion_result.canonical_bytes()
        )

    def test_augmentation_leaves_the_held_snapshot_as_built(self, clean):
        pipeline, report = clean
        held = pipeline._sources["kb_pair"][0]
        built, _ = build_kb_pair(pipeline.world, pipeline.config.kb_pair)
        assert _kb_signature(held) == _kb_signature(built)
        assert pipeline.freebase is not held
        assert report.augmentation.new_facts > 0
        assert (
            len(pipeline.freebase.store)
            == len(held.store) + report.augmentation.new_facts
        )


class TestSourcesAreLazyAndHeld:
    def test_a_pipeline_that_only_serves_generates_nothing(
        self, clean, generator_calls
    ):
        built, _ = clean
        pipeline = KnowledgeBaseConstructionPipeline(
            _config(), world=built.world
        )
        pipeline.all_triples = built.all_triples
        pipeline.serve()
        assert generator_calls == dict.fromkeys(GENERATORS, 0)

    def test_a_second_run_generates_only_the_query_log(
        self, generator_calls
    ):
        pipeline = KnowledgeBaseConstructionPipeline(_config())
        pipeline.run()
        assert generator_calls == dict.fromkeys(GENERATORS, 1)
        generator_calls.update(dict.fromkeys(GENERATORS, 0))
        pipeline.run()
        assert generator_calls == {
            "build_kb_pair": 0, "generate_query_log": 1,
            "generate_websites": 0, "generate_webtext": 0,
        }


def _pickled_types(payload) -> set[type]:
    """The type of every object a pickle of ``payload`` writes."""
    seen: set[type] = set()

    class Census(pickle.Pickler):
        def persistent_id(self, obj):
            seen.add(type(obj))
            return None

    Census(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(payload)
    return seen


def test_the_extraction_checkpoint_carries_no_kb_snapshot(tmp_path):
    config = _config(checkpoint_dir=str(tmp_path))
    KnowledgeBaseConstructionPipeline(config).run()
    payload = CheckpointStore(
        tmp_path, config_fingerprint(config)
    ).load("extraction")
    seen = _pickled_types(payload)
    assert dict in seen and len(seen) > 5  # the census saw the payload
    assert KbSnapshot not in seen
    assert KbClassView not in seen
