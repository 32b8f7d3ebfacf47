"""New-entity creation (Sec. 3.1) and entity-matching scaling curve.

Part 1 (pytest report): with Set_E covering only part of the world
(60% Freebase / 50% DBpedia snapshots), pages about uncovered entities
flow through mention harvesting and joint resolution.  Reported: how
many mentions linked vs. clustered, how many clusters name real (gold)
entities, and the fused quality with discovery on vs. off.  Expected
shape: ≥90% of clusters resolve to genuine world entities, and
discovery adds fused items without hurting precision.

Part 2 (scaling curve): ``EntityLinker`` probe latency at 10k / 100k /
1M catalog entities, blocked (MinHash/LSH cascade) vs. the full scan
(``brute_floor`` at the catalog size).
The scan is only measured where it is affordable (≤ 100k); at every
size where it runs, blocked verdicts must be identical.  The catalog
vocabulary grows ~n^(1/3) so near-neighbour density stays realistic
instead of saturating.  Acceptance (full mode): ≥5× per-query speedup
at the 100k point, and blocked per-query time growing by well under
the size ratio across each 10× step (quadratic total work would track
the ratio; the blocked cascade's candidate sets grow ~n^(2/3)).

Results land in ``benchmarks/out/entity_scaling.txt`` and
``benchmarks/out/BENCH_entity.json``.  Run standalone with
``python benchmarks/bench_entity_discovery.py [--quick]``; ``--quick``
shrinks the curve for CI smoke runs.
"""

import argparse
import json
import os
import pathlib
import random
import sys
import time

import pytest

from benchmarks.conftest import emit_report
from repro.core.pipeline import (
    KnowledgeBaseConstructionPipeline,
    PipelineConfig,
)
from repro.entity.linking import EntityLinker
from repro.evalx.tables import format_ratio, render_table
from repro.rdf.ontology import Entity
from repro.synth.kb_snapshots import KbPairConfig
from repro.synth.querylog import QueryLogConfig
from repro.synth.websites import WebsiteConfig
from repro.synth.webtext import WebTextConfig

OUT_DIR = pathlib.Path(__file__).parent / "out"

# (catalog size, blocked queries, brute queries).  Brute force at 1M
# would be ~100M scorer calls per batch — measured only where it fits
# in a bench budget; identity is asserted wherever it runs.
FULL_SIZES = ((10_000, 100, 100), (100_000, 100, 30), (1_000_000, 100, 0))
QUICK_SIZES = ((2_000, 40, 40), (20_000, 40, 20))

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


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


# ---------------------------------------------------------------------------
# Part 2: blocked vs. brute-force linker scaling curve.


def _scaled_catalog(rng: random.Random, size: int) -> dict[str, Entity]:
    """``size`` distinct 3-word names over an ~n^(1/3) vocabulary."""
    vocab_size = max(60, round(4 * size ** (1 / 3)))
    vocab = [
        "".join(rng.choice(_LETTERS) for _ in range(rng.randint(4, 9)))
        for _ in range(vocab_size)
    ]
    names: set[str] = set()
    while len(names) < size:
        names.add(" ".join(rng.choice(vocab) for _ in range(3)))
    return {
        name: Entity(f"e/{i}", name, "Thing")
        for i, name in enumerate(sorted(names))
    }


def _typo_probes(
    rng: random.Random, names: list[str], count: int
) -> list[str]:
    """Misspelled catalog names — the expensive fuzzy-match hot path."""
    probes = []
    for _ in range(count):
        words = rng.choice(names).split()
        index = rng.randrange(len(words))
        word = words[index]
        position = rng.randrange(len(word))
        words[index] = (
            word[:position] + rng.choice(_LETTERS) + word[position + 1:]
        )
        probes.append(" ".join(words))
    return probes


def _verdict(decision) -> tuple:
    entity_id = decision.entity.entity_id if decision.linked else None
    return (entity_id, decision.score if decision.linked else None)


def _measure_size(size: int, blocked_queries: int, brute_queries: int) -> dict:
    rng = random.Random(20_150_000 + size)
    catalog = _scaled_catalog(rng, size)
    names = list(catalog)
    probes = _typo_probes(rng, names, blocked_queries)

    started = time.perf_counter()
    blocked = EntityLinker(catalog)
    build_seconds = time.perf_counter() - started

    started = time.perf_counter()
    blocked_verdicts = [_verdict(blocked.link(probe)) for probe in probes]
    blocked_seconds = time.perf_counter() - started

    stats = blocked.blocking_stats
    record = {
        "entities": size,
        "vocab": max(60, round(4 * size ** (1 / 3))),
        "blocked_build_seconds": round(build_seconds, 4),
        "blocked_queries": blocked_queries,
        "blocked_query_seconds": round(blocked_seconds / blocked_queries, 6),
        "candidates_per_query": round(
            stats.tier2_candidates / max(1, stats.queries), 1
        ),
        "pruned_ratio": round(
            stats.pruned / max(1, stats.pruned + stats.tier2_candidates), 4
        ),
        "brute_queries": brute_queries,
        "brute_query_seconds": None,
        "speedup": None,
        "identical": None,
    }
    if brute_queries:
        # A floor no pool exceeds: every probe scans the whole catalog.
        brute = EntityLinker(catalog, brute_floor=len(catalog))
        started = time.perf_counter()
        brute_verdicts = [
            _verdict(brute.link(probe)) for probe in probes[:brute_queries]
        ]
        brute_seconds = time.perf_counter() - started
        record["brute_query_seconds"] = round(
            brute_seconds / brute_queries, 6
        )
        record["speedup"] = round(
            record["brute_query_seconds"] / record["blocked_query_seconds"], 2
        )
        record["identical"] = (
            brute_verdicts == blocked_verdicts[:brute_queries]
        )
    return record


def run_scaling(quick: bool) -> dict:
    sizes = QUICK_SIZES if quick else FULL_SIZES
    return {
        "sizes": [
            _measure_size(size, blocked_queries, brute_queries)
            for size, blocked_queries, brute_queries in sizes
        ]
    }


def scaling_table(section: dict) -> str:
    def _ms(seconds):
        return "-" if seconds is None else f"{seconds * 1000:.2f}ms"

    rows = [
        [
            f"{record['entities']:,}",
            f"{record['blocked_build_seconds']:.2f}s",
            _ms(record["blocked_query_seconds"]),
            record["candidates_per_query"],
            f"{record['pruned_ratio']:.1%}",
            _ms(record["brute_query_seconds"]),
            "-" if record["speedup"] is None else f"{record['speedup']:.1f}x",
            {None: "-", True: "yes", False: "NO"}[record["identical"]],
        ]
        for record in section["sizes"]
    ]
    return render_table(
        ["entities", "index build", "blocked/query", "candidates",
         "pruned", "brute/query", "speedup", "identical"],
        rows,
        title="EntityLinker scaling: blocked cascade vs. brute force",
    )


def run_all(quick: bool) -> tuple[dict, str]:
    section = run_scaling(quick)
    document = {
        "meta": {
            "quick": quick,
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "entity_scaling": section,
    }
    return document, scaling_table(section)


def emit(document: dict, tables: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "entity_scaling.txt").write_text(tables + "\n")
    (OUT_DIR / "BENCH_entity.json").write_text(
        json.dumps(document, indent=2) + "\n"
    )


def _check(document: dict) -> list[str]:
    failures = []
    records = document["entity_scaling"]["sizes"]
    for record in records:
        if record["identical"] is False:
            failures.append(
                f"blocked verdicts diverged from brute force at "
                f"{record['entities']} entities"
            )
    if not document["meta"]["quick"]:
        for record in records:
            if record["entities"] == 100_000 and record["speedup"] < 5:
                failures.append(
                    f"speedup at 100k entities {record['speedup']}x < 5x"
                )
        # Sub-quadratic scaling: brute-force per-query latency tracks
        # the size ratio (quadratic total work).  Every step must grow
        # strictly slower than that ratio, and the full curve markedly
        # slower (candidate sets scale ~n^(2/3); one noisy step can
        # inflate a single ratio, so the 0.7 margin applies end-to-end
        # rather than per step).
        for previous, current in zip(records, records[1:]):
            ratio = current["entities"] / previous["entities"]
            growth = (
                current["blocked_query_seconds"]
                / previous["blocked_query_seconds"]
            )
            if growth >= ratio:
                failures.append(
                    f"blocked per-query time grew {growth:.1f}x over a "
                    f"{ratio:.0f}x size step "
                    f"({previous['entities']} -> {current['entities']})"
                )
        first, last = records[0], records[-1]
        total_ratio = last["entities"] / first["entities"]
        total_growth = (
            last["blocked_query_seconds"] / first["blocked_query_seconds"]
        )
        if total_growth >= 0.7 * total_ratio:
            failures.append(
                f"blocked per-query time grew {total_growth:.1f}x over a "
                f"{total_ratio:.0f}x size range "
                f"({first['entities']} -> {last['entities']})"
            )
    return failures


def test_entity_scaling_report():
    document, tables = run_all(quick=False)
    print()
    print(tables)
    emit(document, tables)
    assert not _check(document)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink the scaling curve (CI smoke mode)",
    )
    options = parser.parse_args(argv)
    document, tables = run_all(quick=options.quick)
    print(tables)
    emit(document, tables)
    print(f"\nwrote {OUT_DIR / 'BENCH_entity.json'}")
    failures = _check(document)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
