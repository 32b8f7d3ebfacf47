"""KB augmentation: attach fusion results back to Freebase.

The framework's final step feeds fused knowledge into Freebase
(Figure 1): newly discovered attributes enrich the class schemas, and
fused truths that the KB does not yet hold are added as new facts with
``fusion`` provenance and their fusion belief as confidence.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.extract.base import ExtractorOutput
from repro.fusion.base import ClaimSet, FusionResult, value_key
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value
from repro.synth.kb_snapshots import KbSnapshot, render_name

AUGMENTATION_EXTRACTOR = "fusion"


@dataclass(slots=True)
class AugmentationReport:
    """What augmentation changed in the target KB."""

    new_attributes: dict[str, int] = field(default_factory=dict)  # class -> count
    new_facts: int = 0
    confirmed_facts: int = 0  # fused truths the KB already held
    new_entities: int = 0

    def total_new_attributes(self) -> int:
        return sum(self.new_attributes.values())


def augment_kb(
    snapshot: KbSnapshot,
    discovered: Iterable[ExtractorOutput],
    fusion_result: FusionResult,
    claims: ClaimSet,
    *,
    class_of_subject,
    new_entities: Iterable | None = None,
) -> AugmentationReport:
    """Augment the KB snapshot it is handed, in place.

    The pipeline hands it a copy of its held Freebase snapshot (the
    store copied on write, fresh class views), so the source stays as
    it was built and the next run reads it unchanged.

    Parameters
    ----------
    snapshot:
        The target KB (the Freebase snapshot in the paper's design).
    discovered:
        Extractor outputs carrying discovered attributes.
    fusion_result / claims:
        Fused truths and the claims they came from (claims supply a
        representative lexical form per value key).
    class_of_subject:
        Subject id → class name (or None).
    new_entities:
        Optional discovered :class:`~repro.rdf.ontology.Entity` records
        (from joint entity discovery) to register under their classes.
    """
    report = AugmentationReport()

    # 0. Entity enrichment: register discovered entities.
    for entity in new_entities or ():
        view = snapshot.classes.get(entity.class_name)
        if view is None:
            continue
        known_ids = {existing.entity_id for existing in view.entities}
        if entity.entity_id in known_ids:
            continue
        view.entities = tuple(view.entities) + (entity,)
        report.new_entities += 1

    # 1. Schema enrichment: new attribute names per class.
    for class_name, view in snapshot.classes.items():
        known = {
            name for name in view.schema_attributes + view.instance_attributes
        }
        known_canonical = set(known)
        added: list[str] = []
        for output in discovered:
            for name in output.attributes.get(class_name, {}):
                rendered = render_name(name, class_name, snapshot.naming)
                if rendered in known_canonical or name in known_canonical:
                    continue
                known_canonical.add(rendered)
                added.append(rendered)
        if added:
            view.instance_attributes = tuple(view.instance_attributes) + tuple(
                sorted(added)
            )
            report.new_attributes[class_name] = len(added)

    # 2. Fact attachment: fused truths not yet in the KB.
    lexical_of: dict[tuple[tuple[str, str], str], str] = {}
    for claim in claims:
        lexical_of.setdefault((claim.item, claim.value), claim.lexical)
    for item, truths in fusion_result.truths.items():
        subject, predicate = item
        class_name = class_of_subject(subject)
        if class_name is None or class_name not in snapshot.classes:
            continue
        rendered = render_name(predicate, class_name, snapshot.naming)
        existing = {
            value_key(value.lexical)
            for value in snapshot.store.objects(subject, rendered)
        }
        for truth in truths:
            if truth in existing:
                report.confirmed_facts += 1
                continue
            lexical = lexical_of.get((item, truth), truth)
            snapshot.store.add(
                ScoredTriple(
                    Triple(subject, rendered, Value(lexical)),
                    Provenance(
                        source_id=snapshot.kb_id,
                        extractor_id=AUGMENTATION_EXTRACTOR,
                    ),
                    confidence=min(
                        1.0, max(0.0, fusion_result.belief_of(item, truth))
                    ),
                )
            )
            report.new_facts += 1
    return report
