"""Integration tests: the full Figure-1 pipeline."""

import pytest

from repro.core.pipeline import (
    KnowledgeBaseConstructionPipeline,
    PipelineConfig,
)
from repro.synth.querylog import QueryLogConfig
from repro.synth.websites import WebsiteConfig
from repro.synth.webtext import WebTextConfig
from tests.conftest import SMALL_WORLD_CONFIG, smoke_pipeline_config


@pytest.fixture(scope="module")
def pipeline_run():
    pipeline = KnowledgeBaseConstructionPipeline(smoke_pipeline_config())
    report = pipeline.run()
    return pipeline, report


class TestStages:
    def test_all_stages_ran(self, pipeline_run):
        _, report = pipeline_run
        stages = [timing.stage for timing in report.timings]
        assert stages == [
            "kb-extraction",
            "query-stream",
            "dom-extraction",
            "webtext-extraction",
            "attribute-resolution",
            "confidence",
            "fusion",
            "evaluation",
            "augmentation",
        ]

    def test_timings_positive(self, pipeline_run):
        _, report = pipeline_run
        assert all(timing.seconds >= 0 for timing in report.timings)
        assert report.wall_seconds > 0

    def test_all_four_extractors_produced_output(self, pipeline_run):
        pipeline, report = pipeline_run
        assert set(pipeline.outputs) == {"kb", "querystream", "dom", "webtext"}
        assert report.triple_counts["kb"] > 0
        assert report.triple_counts["dom"] > 0
        assert report.triple_counts["webtext"] > 0


class TestOutcomes:
    def test_fusion_quality(self, pipeline_run):
        _, report = pipeline_run
        assert report.fusion_report.precision > 0.8
        assert report.fusion_report.recall > 0.6

    def test_confidences_assigned(self, pipeline_run):
        pipeline, _ = pipeline_run
        confidences = [claim.confidence for claim in pipeline.claims]
        assert all(0 < c < 1 for c in confidences)
        assert len(set(round(c, 6) for c in confidences)) > 10

    def test_attribute_confidences_assigned(self, pipeline_run):
        pipeline, _ = pipeline_run
        for output in pipeline.outputs.values():
            for per_class in output.attributes.values():
                for record in per_class.values():
                    assert 0 < record.confidence <= 1

    def test_augmentation_added_knowledge(self, pipeline_run):
        _, report = pipeline_run
        assert report.augmentation.new_facts > 0
        assert report.augmentation.total_new_attributes() > 0

    def test_query_stats_match_table3_shape(self, pipeline_run):
        _, report = pipeline_run
        stats = report.query_stats
        assert stats.credible_attributes.get("Hotel", 0) == 0
        assert stats.relevant_records.get("Hotel", 0) > 0

    def test_seed_sizes_recorded(self, pipeline_run):
        _, report = pipeline_run
        assert set(report.seed_sizes) == {
            "Book", "Film", "Country", "University", "Hotel",
        }
        assert all(size > 0 for size in report.seed_sizes.values())


class TestAblationToggles:
    def test_pipeline_runs_with_everything_off(self):
        config = PipelineConfig(
            world=SMALL_WORLD_CONFIG,
            querylog=QueryLogConfig(seed=5, scale=0.001),
            websites=WebsiteConfig(
                seed=9, sites_per_class=1, pages_per_site=6
            ),
            webtext=WebTextConfig(
                seed=15, sources_per_class=1, documents_per_source=4
            ),
            resolve_attributes=False,
        )
        report = KnowledgeBaseConstructionPipeline(config).run()
        assert report.fusion_report.precision > 0.5

