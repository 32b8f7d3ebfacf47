"""``CorrelationEstimator.estimate`` as it was written first.

Two full passes over the claims (every party's vote table, every
item's claimant table), two fresh item sets per party pair, and per
pair and common item a set of the *other* parties built from the
claimant table.  The estimator in ``src/`` builds less — nothing at
one party, no claimant table without a qualifying pair, one item set
per party, witness counts as ``len(...) - 2`` — and must return the
same estimate: ``dependence`` with ``==`` *including key order*, and
``weights``, because every float is added in the same order (the
iteration order of the set ``common`` included).

The methods below are the former ``src/`` ones, moved here unchanged.
"""

from __future__ import annotations

from itertools import combinations

from repro.fusion.base import ClaimSet, Item
from repro.fusion.correlations import (
    UNWITNESSED_RARITY,
    CorrelationEstimate,
    CorrelationEstimator,
)

__all__ = ["CorrelationEstimatorScan"]


class CorrelationEstimatorScan(CorrelationEstimator):
    """:class:`CorrelationEstimator` over full vote and claimant tables."""

    # ------------------------------------------------------------------
    def estimate(self, claims: ClaimSet) -> CorrelationEstimate:
        """Compute pairwise dependence and independence weights."""
        votes = self._votes_by_party(claims)
        claimants = self._claimants_by_item_value(claims)

        estimate = CorrelationEstimate()
        parties = sorted(votes)
        for left, right in combinations(parties, 2):
            common = set(votes[left]) & set(votes[right])
            if len(common) < self.min_common_items:
                continue
            score = self._pair_dependence(
                left, right, votes[left], votes[right], common, claimants
            )
            estimate.dependence[(left, right)] = score

        # Independence weight: 1 / (1 + Σ strong dependences), so a
        # clique of k mutual copiers each weighs ~1/k.
        for party in parties:
            strong = sum(
                score
                for (left, right), score in estimate.dependence.items()
                if score >= self.dependence_threshold
                and party in (left, right)
            )
            estimate.weights[party] = 1.0 / (1.0 + strong)
        return estimate

    # ------------------------------------------------------------------
    def _party(self, claim) -> str:
        return claim.source_id if self.by == "source" else claim.extractor_id

    def _votes_by_party(
        self, claims: ClaimSet
    ) -> dict[str, dict[Item, set[str]]]:
        votes: dict[str, dict[Item, set[str]]] = {}
        for claim in claims:
            votes.setdefault(self._party(claim), {}).setdefault(
                claim.item, set()
            ).add(claim.value)
        return votes

    def _claimants_by_item_value(
        self, claims: ClaimSet
    ) -> dict[Item, dict[str, set[str]]]:
        claimants: dict[Item, dict[str, set[str]]] = {}
        for claim in claims:
            claimants.setdefault(claim.item, {}).setdefault(
                claim.value, set()
            ).add(self._party(claim))
        return claimants

    def _pair_dependence(
        self,
        left: str,
        right: str,
        left_votes: dict[Item, set[str]],
        right_votes: dict[Item, set[str]],
        common: set[Item],
        claimants: dict[Item, dict[str, set[str]]],
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
        """
        agreement_rarity = 0.0
        union_size = 0
        for item in common:
            by_value = claimants[item]
            other_parties = {
                party
                for parties in by_value.values()
                for party in parties
                if party not in (left, right)
            }
            witnesses = len(other_parties)
            # Confidence in the observed popularity: 0 with no
            # witnesses, 0.5 with one, 1.0 from two up.  ≥2 witnesses
            # reproduces the pre-fix arithmetic exactly.
            weight = min(1.0, witnesses / 2.0)
            shared = left_votes[item] & right_votes[item]
            union = left_votes[item] | right_votes[item]
            union_size += len(union)
            for value in shared:
                if witnesses:
                    others_claiming = len(
                        by_value.get(value, set()) - {left, right}
                    )
                    popularity_among_others = others_claiming / witnesses
                else:
                    popularity_among_others = 0.0
                agreement_rarity += (
                    (1.0 - weight) * UNWITNESSED_RARITY
                    + weight * (1.0 - popularity_among_others)
                )
        return agreement_rarity / union_size if union_size else 0.0
