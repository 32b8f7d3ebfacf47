"""Integration tests: new-entity creation through the pipeline.

With a Freebase snapshot covering only part of the world, pages about
uncovered entities must flow mention → joint resolution → new entity →
fused facts → KB augmentation (the paper's Sec. 3.1 plan).
"""

import pytest

from repro.core import pipeline as pipeline_module
from repro.core.pipeline import (
    KnowledgeBaseConstructionPipeline,
    PipelineConfig,
)
from repro.entity.discovery import resolve_mention_triples
from repro.synth.kb_snapshots import KbPairConfig
from repro.synth.querylog import QueryLogConfig
from repro.synth.websites import WebsiteConfig
from repro.synth.webtext import WebTextConfig
from tests.conftest import SMALL_WORLD_CONFIG
from tests.oracles.attribute_scan import ScanAttributeResolver
from tests.oracles.entity_scan import ScanEntityLinker, ScanJointEntityResolver


@pytest.fixture(scope="module")
def discovery_run():
    config = PipelineConfig(
        world=SMALL_WORLD_CONFIG,
        kb_pair=KbPairConfig(
            entity_ratio_freebase=0.6, entity_ratio_dbpedia=0.5
        ),
        querylog=QueryLogConfig(seed=5, scale=0.001),
        websites=WebsiteConfig(seed=9, sites_per_class=2, pages_per_site=12),
        webtext=WebTextConfig(
            seed=15, sources_per_class=2, documents_per_source=6
        ),
        discover_new_entities=True,
    )
    pipeline = KnowledgeBaseConstructionPipeline(config)
    return pipeline, pipeline.run()


class TestDiscoveryFlow:
    def test_resolution_stage_ran(self, discovery_run):
        _, report = discovery_run
        stages = [timing.stage for timing in report.timings]
        assert "entity-resolution" in stages

    def test_new_entities_discovered(self, discovery_run):
        _, report = discovery_run
        assert report.entity_resolution is not None
        assert report.entity_resolution.clusters

    def test_discovered_entities_are_real_world_entities(self, discovery_run):
        pipeline, report = discovery_run
        gold_index = pipeline.world.entity_index()
        resolved = 0
        for cluster in report.entity_resolution.clusters:
            if any(
                surface.lower() in gold_index
                for surface in cluster.surfaces
            ):
                resolved += 1
        # Mention surfaces come from real page headings, so almost all
        # clusters correspond to genuine world entities.
        assert resolved >= len(report.entity_resolution.clusters) * 0.9

    def test_no_mention_subjects_reach_fusion(self, discovery_run):
        pipeline, _ = discovery_run
        assert all(
            not claim.item[0].startswith("mention:")
            for claim in pipeline.claims
        )

    def test_new_entities_registered_in_kb(self, discovery_run):
        pipeline, report = discovery_run
        assert report.augmentation.new_entities == len(
            report.entity_resolution.clusters
        )
        registered = {
            entity.entity_id
            for view in pipeline.freebase.classes.values()
            for entity in view.entities
        }
        for cluster in report.entity_resolution.clusters:
            assert cluster.cluster_id in registered

    def test_fusion_quality_survives_discovery(self, discovery_run):
        _, report = discovery_run
        assert report.fusion_report.precision > 0.85
        assert report.fusion_report.recall > 0.7

    def test_discovered_facts_fused(self, discovery_run):
        pipeline, report = discovery_run
        new_ids = {
            cluster.cluster_id
            for cluster in report.entity_resolution.clusters
        }
        fused_new = [
            item
            for item in report.fusion_result.truths
            if item[0] in new_ids
        ]
        assert fused_new  # new entities carry fused facts


class TestBlockingKnob:
    def test_blocking_on_off_identical_results(
        self, discovery_run, monkeypatch
    ):
        """The run's resolved claims are what the full scans resolve.

        The extracted triples of the (blocked) run go through the
        joint-resolution and attribute-resolver oracles; subjects,
        predicates and clusters must come out as the pipeline's own.
        """
        pipeline, report = discovery_run
        outcome = report.entity_resolution
        extracted = [
            scored
            for output in pipeline.outputs.values()
            for scored in output.triples
        ]
        # Every mention ends up linked or clustered within its class.
        mention_classes = {
            surface: entity.class_name
            for surface, entity in outcome.linked.items()
        }
        for cluster in outcome.clusters:
            for surface in cluster.surfaces:
                mention_classes[surface] = cluster.class_name
        assert mention_classes
        resolver = ScanJointEntityResolver(
            ScanEntityLinker(pipeline.entity_index)
        )
        resolved, scanned = resolve_mention_triples(
            extracted, mention_classes, resolver
        )
        assert resolver.blocking_stats.queries == 0
        monkeypatch.setattr(
            pipeline_module, "AttributeResolver", ScanAttributeResolver
        )
        resolved = pipeline._resolve_attributes(resolved)

        def claims(triples):
            return [(scored.triple, scored.provenance) for scored in triples]

        assert claims(resolved) == claims(pipeline.all_triples)

        def canon(outcome):
            return sorted(
                (
                    cluster.cluster_id,
                    cluster.class_name,
                    cluster.name,
                    sorted(cluster.surfaces),
                )
                for cluster in outcome.clusters
            )

        assert canon(scanned) == canon(outcome)
        assert {s: e.entity_id for s, e in scanned.linked.items()} == {
            s: e.entity_id for s, e in outcome.linked.items()
        }

    def test_blocking_metrics_published(self, discovery_run):
        _, report = discovery_run
        counters = report.metrics.to_json_dict()["counters"]
        for site in ("linker", "discovery", "attributes"):
            assert (
                f"blocking_queries_total{{site={site}}}" in counters
            ), site
    def test_partial_kb_without_discovery_drops_unknown_pages(self):
        config = PipelineConfig(
            world=SMALL_WORLD_CONFIG,
            kb_pair=KbPairConfig(
                entity_ratio_freebase=0.6, entity_ratio_dbpedia=0.5
            ),
            querylog=QueryLogConfig(seed=5, scale=0.001),
            websites=WebsiteConfig(
                seed=9, sites_per_class=2, pages_per_site=12
            ),
            webtext=WebTextConfig(
                seed=15, sources_per_class=2, documents_per_source=6
            ),
            discover_new_entities=False,
        )
        pipeline = KnowledgeBaseConstructionPipeline(config)
        report = pipeline.run()
        assert report.entity_resolution is None
        assert report.augmentation.new_entities == 0
