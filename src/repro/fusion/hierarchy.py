"""Hierarchical value-space reasoning for fusion (Sec. 3.2, bullet 2).

The paper observes that existing fusion treats values at different
abstraction levels as conflicting, although ``(Susie Fang, birth place,
China)`` and ``(Susie Fang, birth place, Wuhan)`` are both true.  This
module wraps any base fusion method with hierarchy awareness:

1. **claim expansion** — a claim of a specific value also (virtually)
   claims each of its generalisations, with confidence decayed per
   level, so related values support rather than fight each other;
2. **specialisation** — after the base method decides, the winner is
   refined to the most specific observed value on its chain whose
   belief stays within a ratio of the winner's;
3. **chain truths** — the decided truth set contains the winning value
   plus its observed generalisations (they are all true).
"""

from __future__ import annotations

from repro.fusion.base import (
    Claim,
    ClaimSet,
    FusionMethod,
    FusionResult,
    claim_key,
    value_key,
)
from repro.rdf.hierarchy import ValueHierarchy

#: Confidence kept per generalisation level by a virtual claim.
GENERALISATION_DECAY = 0.9
#: A more specific observed value replaces a winner once it holds this
#: share of the chain's direct source support.
SPECIALIZE_SHARE = 0.25


class CasefoldHierarchy:
    """A :class:`ValueHierarchy` view keyed by casefolded value keys."""

    def __init__(self, hierarchy: ValueHierarchy) -> None:
        self._parent: dict[str, str] = {}
        for node in hierarchy:
            parent = hierarchy.parent(node)
            if parent is not None:
                self._parent[value_key(node)] = value_key(parent)
        self.nodes = frozenset(self._parent) | frozenset(self._parent.values())

    def __contains__(self, key: str) -> bool:
        return key in self.nodes

    def ancestors(self, key: str) -> list[str]:
        out: list[str] = []
        current = self._parent.get(key)
        seen: set[str] = set()
        while current is not None and current not in seen:
            out.append(current)
            seen.add(current)
            current = self._parent.get(current)
        return out

    def chain(self, key: str) -> list[str]:
        return [key, *self.ancestors(key)]

    def depth(self, key: str) -> int:
        return len(self.ancestors(key))

    def on_same_chain(self, left: str, right: str) -> bool:
        return (
            left == right
            or left in self.ancestors(right)
            or right in self.ancestors(left)
        )


class HierarchicalFusion(FusionMethod):
    """Hierarchy-aware wrapper around any base fusion method.

    Parameters
    ----------
    base:
        The underlying method (ACCU, multi-truth, ...).
    hierarchy:
        The value hierarchy (e.g. locations).

    Virtual claims decay by :data:`GENERALISATION_DECAY` per level.
    Specialisation (:data:`SPECIALIZE_SHARE`) weighs *direct* source
    support (who actually asserted the exact value), not base beliefs,
    because iterative methods produce winner-take-all belief
    distributions.
    """

    def __init__(self, base: FusionMethod, hierarchy: ValueHierarchy) -> None:
        self.base = base
        self.hierarchy = CasefoldHierarchy(hierarchy)
        self.name = f"hier({base.name})"

    # ------------------------------------------------------------------
    def fuse(self, claims: ClaimSet) -> FusionResult:
        self._check_nonempty(claims)
        expanded = self._expand(claims)
        result = self.base.fuse(expanded)
        return self._specialize(claims, result)

    # ------------------------------------------------------------------
    def _expand(self, claims: ClaimSet) -> ClaimSet:
        """Add virtual generalisation claims for hierarchical values.

        A virtual claim's value is a hierarchy node, so only an item
        with a claim of a node gains claims: its run is rebuilt with
        them, deduplicated as :meth:`ClaimSet.add` would (maximum
        confidence, the first claim on a tie) and in claim-key order;
        every other run is carried over as it stands.  A canonical set
        expands to a canonical set.
        """
        nodes = self.hierarchy.nodes
        order = list(claims)
        expanded: list[Claim] = []
        done = 0  # ``order[:done]`` is in ``expanded``
        for at, claim in enumerate(order):
            if claim.value not in nodes or at < done:
                continue
            # A node's item: its claims lie together around ``at``.
            item, start, end = claim.item, at, at + 1
            while start > done and order[start - 1].item == item:
                start -= 1
            while end < len(order) and order[end].item == item:
                end += 1
            expanded += order[done:start]
            expanded += self._expanded_run(order[start:end])
            done = end
        expanded += order[done:]
        return ClaimSet.adopt(expanded)

    def _expanded_run(self, run: list[Claim]) -> list[Claim]:
        """One item's claims, each followed by a virtual claim per
        ancestor of its value (confidence decayed per level),
        deduplicated and in claim-key order."""
        by_key: dict[tuple, Claim] = {}
        for claim in run:
            confidence = claim.confidence
            chain = [claim]
            for ancestor in self.hierarchy.ancestors(claim.value):
                confidence *= GENERALISATION_DECAY
                chain.append(
                    Claim(
                        item=claim.item,
                        value=ancestor,
                        lexical=ancestor,
                        source_id=claim.source_id,
                        extractor_id=claim.extractor_id,
                        confidence=confidence,
                    )
                )
            for link in chain:
                key = claim_key(link)
                held = by_key.setdefault(key, link)
                if held is not link and not held.confidence >= link.confidence:
                    by_key[key] = link
        return [by_key[key] for key in sorted(by_key)]

    def _specialize(
        self, original: ClaimSet, result: FusionResult
    ) -> FusionResult:
        """Refine winners to the most specific well-supported value."""
        refined = FusionResult(self.name)
        refined.iterations = result.iterations
        refined.converged_at = result.converged_at
        refined.source_quality = result.source_quality
        refined.belief = result.belief
        # An item none of whose values lies on a chain keeps its
        # winners: nothing was expanded for it, nothing can refine them.
        refined.truths = {
            item: result.truths.get(item, frozenset())
            for item in original.items()
        }
        nodes = self.hierarchy.nodes
        for item in dict.fromkeys(
            claim.item for claim in original if claim.value in nodes
        ):
            values = original.values_of(item)
            support = {
                value: len({claim.source_id for claim in claims})
                for value, claims in values.items()
            }
            truths: list[str] = []
            for winner in refined.truths[item]:
                chain_members = [
                    value
                    for value in support
                    if self.hierarchy.on_same_chain(value, winner)
                ]
                if not chain_members:
                    truths.append(winner)
                    continue
                chain_support = sum(support[value] for value in chain_members)
                best = winner
                for value in sorted(
                    chain_members,
                    key=lambda v: (-self.hierarchy.depth(v), v),
                ):
                    if (
                        self.hierarchy.depth(value)
                        <= self.hierarchy.depth(winner)
                        and value != winner
                    ):
                        continue
                    if support[value] >= SPECIALIZE_SHARE * chain_support:
                        best = value
                        break
                # The winner's chain is jointly true; report the
                # specific winner plus its observed generalisations.
                truths.append(best)
                for ancestor in self.hierarchy.ancestors(best):
                    if ancestor in support:
                        truths.append(ancestor)
            refined.decide(item, truths)
        return refined
