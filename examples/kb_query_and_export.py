"""Consume the constructed KB: export, reload and query it.

Actionable knowledge must be queryable.  This example runs the
pipeline, exports the augmented Freebase snapshot to the claims TSV
format, reloads it, and answers pattern queries over the fused
knowledge with ``TripleStore.match`` (``None`` is a wildcard) —
including facts that entered the KB only through fusion.

Run:  python examples/kb_query_and_export.py
"""

import tempfile
from pathlib import Path

from repro import KnowledgeBaseConstructionPipeline, PipelineConfig
from repro.rdf.io import dump_claims_tsv, load_claims_tsv
from repro.synth.querylog import QueryLogConfig
from repro.synth.websites import WebsiteConfig


def main() -> None:
    config = PipelineConfig(
        querylog=QueryLogConfig(scale=0.001),
        websites=WebsiteConfig(sites_per_class=3, pages_per_site=12),
    )
    pipeline = KnowledgeBaseConstructionPipeline(config)
    report = pipeline.run()
    print(
        f"Constructed KB: {len(pipeline.freebase.store)} claims "
        f"(+{report.augmentation.new_facts} from fusion)"
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "freebase.tsv"
        written = dump_claims_tsv(pipeline.freebase.store, path)
        print(f"Exported {written} claims to {path.name} "
              f"({path.stat().st_size // 1024} KiB)")
        store = load_claims_tsv(path)

    # Query 1: everything the KB knows about one university.
    university = pipeline.world.entities("University")[0]
    triples = store.match(subject=university.entity_id)
    print(f"\n{university.name} — {len(triples)} facts; first 8:")
    for triple in sorted(triples, key=lambda t: t.predicate)[:8]:
        print(f"  {triple.predicate:<28} {triple.obj.lexical}")

    # Query 2: a claims scan — the claims fusion itself attached.
    fused = [
        scored
        for scored in store.claims()
        if scored.provenance.extractor_id == "fusion"
    ]
    print(f"\nClaims attached by fusion: {len(fused)}; sample:")
    for scored in fused[:5]:
        triple = scored.triple
        print(
            f"  ({triple.subject}, {triple.predicate}, "
            f"{triple.obj.lexical})  belief={scored.confidence:.2f}"
        )

    # Query 3: every triple, filtered on its object.
    big_numbers = [
        triple
        for triple in store.match()
        if triple.obj.lexical.isdigit() and len(triple.obj.lexical) >= 6
    ]
    print(f"\nFacts with 6+ digit numeric values: {len(big_numbers)}")


if __name__ == "__main__":
    main()
