"""``HierarchicalFusion._specialize`` walking every item's chains.

The refinement as it was written first: for *every* item, the support
of each observed value, and for each winner its chain members, their
ranking by depth and the share test.  ``src/`` takes an item none of
whose values is a hierarchy node as its winners stand (nothing was
expanded for it, a value off every chain is only on a chain with
itself) and must decide the same truths.

``_specialize`` below is the former ``src/`` method, moved here
unchanged but for the base method's ``converged_at``, which it now
copies as ``src/`` does.
"""

from __future__ import annotations

from repro.fusion.base import ClaimSet, FusionResult
from repro.fusion.hierarchy import SPECIALIZE_SHARE, HierarchicalFusion

__all__ = ["HierarchicalFusionEveryItem"]


class HierarchicalFusionEveryItem(HierarchicalFusion):
    """:class:`HierarchicalFusion` refining every item the long way."""

    def _specialize(
        self, original: ClaimSet, result: FusionResult
    ) -> FusionResult:
        """Refine winners to the most specific well-supported value."""
        refined = FusionResult(self.name)
        refined.iterations = result.iterations
        refined.converged_at = result.converged_at
        refined.source_quality = result.source_quality
        refined.belief = dict(result.belief)
        for item in original.items():
            values = original.values_of(item)
            support = {
                value: len({claim.source_id for claim in claims})
                for value, claims in values.items()
            }
            truths: set[str] = set()
            for winner in result.truths.get(item, set()):
                chain_members = [
                    value
                    for value in support
                    if self.hierarchy.on_same_chain(value, winner)
                ]
                if not chain_members:
                    truths.add(winner)
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
                truths.add(best)
                for ancestor in self.hierarchy.ancestors(best):
                    if ancestor in support:
                        truths.add(ancestor)
            refined.truths[item] = truths
        return refined
