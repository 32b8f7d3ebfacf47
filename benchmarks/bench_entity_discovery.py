"""New-entity creation (Sec. 3.1).

With Set_E covering only part of the world (60% Freebase / 50% DBpedia
snapshots), pages about uncovered entities flow through mention
harvesting and joint resolution.  Reported: how many mentions linked
vs. clustered, how many clusters name real (gold) entities, and the
fused quality with discovery on vs. off.  Expected shape: ≥90% of
clusters resolve to genuine world entities, and discovery adds fused
items without hurting precision.
"""

import pytest

from benchmarks.conftest import emit_report
from repro.core.pipeline import (
    KnowledgeBaseConstructionPipeline,
    PipelineConfig,
)
from repro.evalx.tables import format_ratio, render_table
from repro.synth.kb_snapshots import KbPairConfig
from repro.synth.querylog import QueryLogConfig
from repro.synth.websites import WebsiteConfig
from repro.synth.webtext import WebTextConfig


def _config(discover: bool) -> PipelineConfig:
    return PipelineConfig(
        kb_pair=KbPairConfig(
            entity_ratio_freebase=0.6, entity_ratio_dbpedia=0.5
        ),
        querylog=QueryLogConfig(seed=17, scale=0.001),
        websites=WebsiteConfig(seed=23, sites_per_class=3,
                               pages_per_site=15),
        webtext=WebTextConfig(seed=29, sources_per_class=2,
                              documents_per_source=8),
        discover_new_entities=discover,
    )


@pytest.fixture(scope="module")
def runs():
    results = {}
    for discover in (False, True):
        pipeline = KnowledgeBaseConstructionPipeline(_config(discover))
        results[discover] = (pipeline, pipeline.run())
    return results


def test_entity_discovery_report(runs, benchmark):
    pipeline_on, report_on = runs[True]
    _pipeline_off, report_off = runs[False]

    from repro.entity.discovery import resolve_mention_triples
    from repro.entity.linking import EntityLinker
    from repro.entity.discovery import JointEntityResolver

    # Time the resolution step itself on the discovered mentions.
    dom_triples = pipeline_on.outputs["dom"].triples
    mention_classes = {}
    gold_index = pipeline_on.world.entity_index()
    for cluster in report_on.entity_resolution.clusters:
        for surface in cluster.surfaces:
            mention_classes[surface] = cluster.class_name
    resolver = JointEntityResolver(EntityLinker(pipeline_on._set_e_index()))
    benchmark.pedantic(
        lambda: resolve_mention_triples(dom_triples, mention_classes, resolver),
        rounds=3,
        iterations=1,
    )

    outcome = report_on.entity_resolution
    genuine = sum(
        1
        for cluster in outcome.clusters
        if any(s.lower() in gold_index for s in cluster.surfaces)
    )
    rows = [
        [
            len(outcome.linked),
            len(outcome.clusters),
            genuine,
            format_ratio(genuine / max(1, len(outcome.clusters))),
            report_on.augmentation.new_entities,
        ]
    ]
    discovery_table = render_table(
        [
            "mentions linked", "clusters (new entities)",
            "clusters naming gold entities", "cluster precision",
            "entities added to KB",
        ],
        rows,
        title="New-entity creation (Set_E at 60%/50% coverage)",
    )
    quality_table = render_table(
        ["discovery", "fused items", "precision", "recall"],
        [
            [
                "off",
                report_off.fusion_report.items,
                format_ratio(report_off.fusion_report.precision),
                format_ratio(report_off.fusion_report.recall),
            ],
            [
                "on",
                report_on.fusion_report.items,
                format_ratio(report_on.fusion_report.precision),
                format_ratio(report_on.fusion_report.recall),
            ],
        ],
        title="Fused knowledge with and without discovery",
    )
    emit_report(
        "entity_discovery", discovery_table + "\n\n" + quality_table
    )

    assert outcome.clusters
    assert genuine / len(outcome.clusters) >= 0.9
    assert report_on.fusion_report.items > report_off.fusion_report.items
    assert report_on.fusion_report.precision > (
        report_off.fusion_report.precision - 0.03
    )
