"""Inter-source and inter-extractor correlation estimation.

The paper proposes to improve fusion by modelling correlations among
Web sources *and* among extractors (Sec. 3.2, bullet 3), citing the
Bayesian copy-detection line of work (Dong et al., PVLDB'10).  This
module estimates pairwise dependence from the claims themselves and
turns it into per-source *independence weights* that the fusion methods
apply as vote discounts — a clique of copiers then counts roughly as
one independent source.

Dependence evidence follows the copy-detection intuition: agreeing on a
*popular* value is weak evidence (independent sources agree on truths),
while agreeing on a *rare/minority* value is strong evidence of copying
(two sources rarely invent the same mistake independently).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import combinations
from operator import attrgetter

from repro.fusion.base import Claim, Item

#: Rarity credited to an agreement no independent witness can vouch
#: for.  With zero witnesses every agreement earns exactly this much,
#: so a *pure two-source world* yields a constant dependence of
#: ``0.2 × |shared| / |union|`` regardless of what the values are —
#: intended: with no outside evidence, agreement content cannot
#: distinguish copying from two honest sources, and the constant sits
#: below :data:`DEPENDENCE_THRESHOLD` so such pairs are never
#: discounted.  Pinned in tests/unit/test_fusion_correlations.py.
UNWITNESSED_RARITY = 0.2

#: Pairs at or above this dependence count toward weight discounts.
DEPENDENCE_THRESHOLD = 0.25


@dataclass(slots=True)
class CorrelationEstimate:
    """Pairwise dependence scores plus derived per-source weights."""

    dependence: dict[tuple[str, str], float] = field(default_factory=dict)
    weights: dict[str, float] = field(default_factory=dict)

    def pair(self, left: str, right: str) -> float:
        key = (min(left, right), max(left, right))
        return self.dependence.get(key, 0.0)


class CorrelationEstimator:
    """Estimate source (or extractor) correlations from claims.

    Parameters
    ----------
    by:
        ``"source"`` (default) or ``"extractor"`` — which provenance
        dimension to correlate.
    min_common_items:
        Pairs sharing fewer items are assumed independent.
    """

    def __init__(
        self,
        *,
        by: str = "source",
        min_common_items: int = 3,
    ) -> None:
        if by not in ("source", "extractor"):
            raise ValueError("by must be 'source' or 'extractor'")
        self.by = by
        self.min_common_items = min_common_items

    # ------------------------------------------------------------------
    def estimate(self, claims: Iterable[Claim]) -> CorrelationEstimate:
        """Compute pairwise dependence and independence weights.

        ``claims`` may be any iterable, a one-shot one included; it is
        read once, and the estimate does not depend on its order.
        """
        claims = list(claims)
        party_of = attrgetter(
            "source_id" if self.by == "source" else "extractor_id"
        )
        estimate = CorrelationEstimate()
        parties = sorted({party_of(claim) for claim in claims})
        if len(parties) < 2:
            # Nobody to depend on: no table is built.
            estimate.weights = dict.fromkeys(parties, 1.0)
            return estimate

        # A ballot is the claimed value itself, a set only from the
        # party's second value of the item on: a set per ballot is a
        # container per claim for the collector to walk.
        votes: dict[str, dict[Item, str | set[str]]] = {}
        for claim in claims:
            ballots = votes.setdefault(party_of(claim), {})
            item, value = claim.item, claim.value
            held = ballots.setdefault(item, value)
            if isinstance(held, set):
                held.add(value)
            elif held != value:
                ballots[item] = {held, value}
        # One item set per party, built once instead of once per pair
        # (``_pair_dependence`` adds its floats in sorted item order,
        # whatever order ``&`` yields the common items in).
        items_of = {party: set(votes[party]) for party in parties}
        qualifying = []
        for left, right in combinations(parties, 2):
            common = items_of[left] & items_of[right]
            if len(common) >= self.min_common_items:
                qualifying.append((left, right, common))
        if qualifying:
            claimants = self._claimants_by_item_value(
                claims,
                party_of,
                set().union(*(common for _, _, common in qualifying)),
            )
            for left, right, common in qualifying:
                estimate.dependence[(left, right)] = self._pair_dependence(
                    votes[left], votes[right], common, claimants
                )

        # Independence weight: 1 / (1 + Σ strong dependences), so a
        # clique of k mutual copiers each weighs ~1/k.
        for party in parties:
            strong = sum(
                score
                for (left, right), score in estimate.dependence.items()
                if score >= DEPENDENCE_THRESHOLD
                and party in (left, right)
            )
            estimate.weights[party] = 1.0 / (1.0 + strong)
        return estimate

    # ------------------------------------------------------------------
    @staticmethod
    def _claimants_by_item_value(
        claims: list[Claim], party_of, items: set[Item]
    ) -> dict[Item, tuple[set[str], dict[str, set[str]]]]:
        """Per item of ``items``: the parties claiming it, and those
        claiming each of its values."""
        claimants: dict[Item, tuple[set[str], dict[str, set[str]]]] = {}
        for claim in claims:
            item = claim.item
            if item in items:
                held = claimants.get(item)
                if held is None:
                    held = claimants[item] = (set(), {})
                party = party_of(claim)
                held[0].add(party)
                held[1].setdefault(claim.value, set()).add(party)
        return claimants

    @staticmethod
    def _pair_dependence(
        left_votes: dict[Item, str | set[str]],
        right_votes: dict[Item, str | set[str]],
        common: set[Item],
        claimants: dict[Item, tuple[set[str], dict[str, set[str]]]],
    ) -> float:
        """Dependence in [0, 1]: rarity-weighted agreement rate.

        Rarity is measured among *other* parties — two sources agreeing
        on a value everyone else also asserts (a popular truth) is no
        copying evidence, while agreeing on a value nobody else claims
        almost certainly is.  With few independent witnesses the
        observed popularity is unreliable, so it is blended toward the
        uninformative :data:`UNWITNESSED_RARITY` prior in proportion to
        the witness count (full trust from two witnesses up).  The old
        hard cliff — a flat 0.2 for *any* item with fewer than two
        witnesses — threw away the one witness an item did have: a
        single independent dissenter (rarity 1.0 under the formula)
        scored the same 0.2 as no evidence at all, so copier cliques in
        sparse worlds stayed below the discount threshold.

        The sum is normalized by the size of the pair's value *union*
        per item (Jaccard style), so both popular-only agreement and
        frequent disagreement drive the dependence toward zero; a pair
        that always disagrees scores near 0 even over many items.

        Items and shared values are walked in sorted order, so the sum
        depends on neither the hash seed nor the claim order.
        """
        agreement_rarity = 0.0
        union_size = 0
        for item in sorted(common):
            everyone, by_value = claimants[item]
            # Both parties of the pair claim the item (and, below, each
            # shared value): everybody else is a witness.
            witnesses = len(everyone) - 2
            # Confidence in the observed popularity: 0 with no
            # witnesses, 0.5 with one, 1.0 from two up.  ≥2 witnesses
            # reproduces the pre-fix arithmetic exactly.
            weight = witnesses / 2.0 if witnesses < 2 else 1.0
            left_values, right_values = left_votes[item], right_votes[item]
            if isinstance(left_values, str) and isinstance(right_values, str):
                shared = (left_values,) if left_values == right_values else ()
                union_size += 2 - len(shared)
            else:
                if isinstance(left_values, str):
                    left_values = {left_values}
                elif isinstance(right_values, str):
                    right_values = {right_values}
                shared = sorted(left_values & right_values)
                union_size += (
                    len(left_values) + len(right_values) - len(shared)
                )
            for value in shared:
                if witnesses:
                    others_claiming = len(by_value[value]) - 2
                    popularity_among_others = others_claiming / witnesses
                else:
                    popularity_among_others = 0.0
                agreement_rarity += (
                    (1.0 - weight) * UNWITNESSED_RARITY
                    + weight * (1.0 - popularity_among_others)
                )
        return agreement_rarity / union_size if union_size else 0.0
