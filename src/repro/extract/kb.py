"""Attribute extraction from existing knowledge bases (Sec. 4, Table 2).

The paper combines Freebase and DBpedia: attributes are "first analyzed
separately for both KBs and then combined ... after some preprocessing
(e.g., duplicate removal)".  Operationally:

1. per KB and class, collect the official schema attributes *and* every
   attribute used in the class's instance data (unmapped/raw
   properties) — instance usage is what makes extraction exceed the
   schema count;
2. normalise each KB's naming convention (camelCase, ``class/snake``
   keys) into canonical lower-case names;
3. deduplicate within a KB, then union across KBs (the "Combine"
   column of Table 2).

The extractor also re-emits the KB's instance facts as scored triples
under canonical attribute names, so KB claims participate in fusion.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.extract.base import ExtractorOutput
from repro.rdf.triple import Provenance, ScoredTriple, Triple
from repro.synth.kb_snapshots import KbSnapshot, decamelize
from repro.textproc.normalize import normalize_attribute

EXTRACTOR_ID = "kb"


def canonicalize_kb_name(rendered: str, naming: str) -> str:
    """Invert a KB naming convention into a canonical attribute name."""
    if naming == "camel":
        return normalize_attribute(decamelize(rendered))
    if naming == "snake":
        # Strip the "class/" prefix, then fold underscores.
        bare = rendered.split("/", 1)[-1]
        return normalize_attribute(bare)
    return normalize_attribute(rendered)


class KbExtractor:
    """Extract attributes (and fact claims) from one KB snapshot."""

    def __init__(self, snapshot: KbSnapshot) -> None:
        self.snapshot = snapshot

    def extract(self) -> ExtractorOutput:
        """Run extraction over every class of the snapshot."""
        output = ExtractorOutput(EXTRACTOR_ID)
        snapshot = self.snapshot
        # Rendered predicate -> canonical name: a snapshot uses a few
        # hundred predicates across thousands of claims.
        canonical_of: dict[str, str] = {}
        for class_name, view in snapshot.classes.items():
            # Schema attributes count as evidence even without usage.
            for rendered in view.schema_attributes:
                canonical = canonicalize_kb_name(rendered, snapshot.naming)
                output.add_attribute(
                    class_name,
                    canonical,
                    sources={snapshot.kb_id},
                )
            # Instance usage: scan claims of the class's entities.
            entity_ids = {entity.entity_id for entity in view.entities}
            usage: dict[str, set[str]] = {}
            for scored in snapshot.store.claims():
                triple = scored.triple
                if triple.subject not in entity_ids:
                    continue
                canonical = canonical_of.get(triple.predicate)
                if canonical is None:
                    canonical = canonical_of[triple.predicate] = (
                        canonicalize_kb_name(
                            triple.predicate, snapshot.naming
                        )
                    )
                usage.setdefault(canonical, set()).add(triple.subject)
                output.triples.append(
                    ScoredTriple(
                        Triple(triple.subject, canonical, triple.obj),
                        Provenance(
                            source_id=snapshot.kb_id,
                            extractor_id=EXTRACTOR_ID,
                            locator=triple.predicate,
                        ),
                        scored.confidence,
                    )
                )
            for canonical, subjects in usage.items():
                output.add_attribute(
                    class_name,
                    canonical,
                    support=len(subjects),
                    entity_support=len(subjects),
                    sources={snapshot.kb_id},
                )
        return output

    def schema_attribute_names(self, class_name: str) -> set[str]:
        """Canonical names of the class's *official* schema attributes
        (the "original" counts of Table 2)."""
        view = self.snapshot.classes[class_name]
        return {
            canonicalize_kb_name(rendered, self.snapshot.naming)
            for rendered in view.schema_attributes
        }


def combine_kb_outputs(
    outputs: Iterable[ExtractorOutput],
) -> ExtractorOutput:
    """Union per-class attribute extractions from several KBs.

    Canonical names already agree across KBs after normalisation, so
    duplicate removal is the union on canonical names; evidence
    (support, sources) is merged.  Triples are concatenated — fusion,
    not combination, resolves their conflicts.
    """
    combined = ExtractorOutput(EXTRACTOR_ID)
    for output in outputs:
        for class_name, per_class in output.attributes.items():
            for name, record in per_class.items():
                combined.add_attribute(
                    class_name,
                    name,
                    support=record.support,
                    entity_support=record.entity_support,
                    sources=set(record.sources),
                )
        combined.triples.extend(output.triples)
    return combined
