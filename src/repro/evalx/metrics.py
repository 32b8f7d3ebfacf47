"""Evaluation metrics: attribute discovery and truth discovery.

All evaluations run against the ground-truth world (the gold standard
by construction).  Truth checks are hierarchy-aware and case-folded, so
``adelaide`` extracted from a page matches the world's ``Adelaide``,
and a fused truth of ``Australia`` counts as correct when the asserted
leaf is one of its descendants.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.fusion.base import FusionResult, Item, value_key
from repro.rdf.triple import ScoredTriple
from repro.synth.world import GroundTruthWorld


@dataclass(frozen=True, slots=True)
class PrecisionRecall:
    """Precision/recall/F1 over some decision set."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        precision, recall = self.precision, self.recall
        if precision + recall == 0:
            return 0.0
        return 2 * precision * recall / (precision + recall)


def attribute_discovery_metrics(
    discovered: Iterable[str],
    gold: Iterable[str],
) -> PrecisionRecall:
    """Score discovered attribute names against the gold universe.

    Both sides pass through the same :func:`value_key` normalisation
    (whitespace-collapsed, case-folded) the rest of the evaluation
    layer uses, so ``Capital`` discovered against ``capital`` gold is
    one true positive, not a false positive plus a false negative.
    """
    discovered_set = {value_key(name) for name in discovered}
    gold_set = {value_key(name) for name in gold}
    true_positives = len(discovered_set & gold_set)
    return PrecisionRecall(
        true_positives=true_positives,
        false_positives=len(discovered_set) - true_positives,
        false_negatives=len(gold_set) - true_positives,
    )


def true_value_keys(
    world: GroundTruthWorld, subject: str, predicate: str
) -> set[str]:
    """Case-folded, hierarchy-expanded true values of one item."""
    return {
        value_key(value) for value in world.true_values(subject, predicate)
    }


def triple_precision(
    world: GroundTruthWorld, triples: Iterable[ScoredTriple]
) -> float:
    """Fraction of *distinct* extracted triples whose value is true.

    Triples are deduplicated on ``(subject, predicate, value_key)``
    before scoring: a source asserting the same triple under many
    provenances states one fact, so repeats must not inflate (true
    duplicates) or deflate (false duplicates) the precision.
    """
    seen: set[tuple[str, str, str]] = set()
    total = 0
    correct = 0
    for scored in triples:
        triple = scored.triple
        key = (triple.subject, triple.predicate, value_key(triple.obj.lexical))
        if key in seen:
            continue
        seen.add(key)
        total += 1
        truths = true_value_keys(world, triple.subject, triple.predicate)
        if key[2] in truths:
            correct += 1
    return correct / total if total else 0.0


@dataclass(slots=True)
class TruthDiscoveryReport:
    """Scores of one fusion run against the world."""

    method: str
    items: int
    decided: PrecisionRecall
    # Precision over items where the world asserts at least one truth.
    answerable_items: int

    @property
    def precision(self) -> float:
        return self.decided.precision

    @property
    def recall(self) -> float:
        return self.decided.recall

    @property
    def f1(self) -> float:
        return self.decided.f1


def evaluate_fusion(
    world: GroundTruthWorld,
    result: FusionResult,
    *,
    items: Iterable[Item] | None = None,
) -> TruthDiscoveryReport:
    """Score fused truths item by item.

    For each item, decided values are matched against the world's true
    value set (leaf values plus hierarchy generalisations).  Recall
    counts the world's *leaf* truths as the targets: deciding only a
    generalisation of a leaf earns its precision but misses recall for
    the leaf unless the leaf itself (or an ancestor matching it) is
    decided.  Items unknown to the world (no true values) count every
    decided value as a false positive.
    """
    true_positives = 0
    false_positives = 0
    false_negatives = 0
    answerable = 0
    selected = list(items) if items is not None else list(result.truths)
    for item in selected:
        subject, predicate = item
        decided = result.truths.get(item, frozenset())
        truth_set = true_value_keys(world, subject, predicate)
        leaf_set = {
            value_key(value)
            for value in world.true_leaf_values(subject, predicate)
        }
        if truth_set:
            answerable += 1
        for value in decided:
            if value in truth_set:
                true_positives += 1
            else:
                false_positives += 1
        # Recall is strict: a leaf truth counts as recalled only when
        # decided exactly — a generalisation earns precision, not recall.
        false_negatives += len(leaf_set - decided)
    return TruthDiscoveryReport(
        method=result.method,
        items=len(selected),
        decided=PrecisionRecall(true_positives, false_positives, false_negatives),
        answerable_items=answerable,
    )


def remap_subjects(
    result: FusionResult, mapping: dict[str, str]
) -> FusionResult:
    """A copy of a fusion result with subjects rewritten through a map.

    Used by evaluation when *discovered* entities must be resolved back
    to their gold identities: the pipeline's ``new/<class>/NNNN``
    cluster ids name real world entities that were merely absent from
    ``Set_E``, so scoring them requires the gold-side translation.
    """
    remapped = FusionResult(result.method)
    remapped.iterations = result.iterations
    remapped.source_quality = dict(result.source_quality)
    for (subject, predicate), values in result.truths.items():
        target = (mapping.get(subject, subject), predicate)
        remapped.truths[target] = (
            remapped.truths.get(target, frozenset()) | values
        )
    for ((subject, predicate), value), belief in result.belief.items():
        target = ((mapping.get(subject, subject), predicate), value)
        remapped.belief[target] = max(
            belief, remapped.belief.get(target, 0.0)
        )
    return remapped
