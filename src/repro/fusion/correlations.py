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

The estimate is one walk of the claims in sorted item order.  An item
with one claim or one party is skipped; for an item several parties
claim, the witness count and each value's rarity depend on the item
and value alone, so they are computed once and added to the tally of
every pair of its claimants — each pair's floats in sorted item, then
shared-value, order, as ``tests/oracles/correlation_scan.py`` adds them.
An item on which each party claims one value (on every workload, every
shared item) is tallied from one party → value map: a pair agrees iff
its two values are equal, so it shares one value or none, and no set is
built.  Only an item where some party claims several values builds
per-party and per-value sets and intersects them.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import combinations, compress, count, islice
from operator import attrgetter, eq, ge

from repro.fusion.base import Claim

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

_item_of = attrgetter("item")


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
        Pairs sharing fewer items are assumed independent (at least 1:
        a pair sharing no item has no evidence to score).
    """

    def __init__(
        self,
        *,
        by: str = "source",
        min_common_items: int = 3,
    ) -> None:
        if by not in ("source", "extractor"):
            raise ValueError("by must be 'source' or 'extractor'")
        if min_common_items < 1:
            raise ValueError("min_common_items must be at least 1")
        self.by = by
        self.min_common_items = min_common_items

    # ------------------------------------------------------------------
    def estimate(self, claims: Iterable[Claim]) -> CorrelationEstimate:
        """Compute pairwise dependence and independence weights.

        ``claims`` may be any iterable, a one-shot one included; it is
        read once, and the estimate does not depend on its order.
        """
        party_of = attrgetter(
            "source_id" if self.by == "source" else "extractor_id"
        )
        claims = list(claims)
        parties = sorted(set(map(party_of, claims)))
        estimate = CorrelationEstimate()
        if len(parties) > 1:
            estimate.dependence = self._dependence(
                _shared_runs(claims), party_of
            )

        # Independence weight: 1 / (1 + Σ strong dependences), so a
        # clique of k mutual copiers each weighs ~1/k.  Each party's
        # strong scores are summed in ``dependence`` order.
        strong: dict[str, list[float]] = {party: [] for party in parties}
        for pair, score in estimate.dependence.items():
            if score >= DEPENDENCE_THRESHOLD:
                for party in pair:
                    strong[party].append(score)
        estimate.weights = {
            party: 1.0 / (1.0 + sum(scores))
            for party, scores in strong.items()
        }
        return estimate

    def _dependence(
        self, runs: Iterable[list[Claim]], party_of
    ) -> dict[tuple[str, str], float]:
        """Per qualifying pair, in sorted pair order: the rarity of its
        agreements (:func:`_rarity`) over the size of its value *union*
        per item (Jaccard style), so both popular-only agreement and
        frequent disagreement drive the dependence toward zero."""
        # Pair → [common items, rarity sum, value-union size].
        tallies = defaultdict(lambda: [0, 0.0, 0])
        for run in runs:
            if len(run) == 2:  # most shared items: two claims, no witness
                first, second = run
                left, right = party_of(first), party_of(second)
                if left != right:
                    pair = (left, right) if left < right else (right, left)
                    tally = tallies[pair]
                    tally[0] += 1
                    if first.value == second.value:
                        tally[1] += _rarity(0, 2)
                        tally[2] += 1
                    else:
                        tally[2] += 2
                continue
            ballot: dict[str, str] = {}  # party → the one value it claims
            for claim in run:
                value = claim.value
                if ballot.setdefault(party_of(claim), value) != value:
                    break  # a multi-valued ballot: the set path below
            else:
                _tally_ballots(tallies, ballot)
                continue
            ballots: dict[str, set[str]] = {}  # party → values claimed
            holders: dict[str, set[str]] = {}  # value → parties claiming
            for claim in run:
                party, value = party_of(claim), claim.value
                ballots.setdefault(party, set()).add(value)
                holders.setdefault(value, set()).add(party)
            # Both parties of a pair claim the item (and each value
            # they share): everybody else is a witness.
            witnesses = len(ballots) - 2
            rarity = {
                value: _rarity(witnesses, len(claimants))
                for value, claimants in holders.items()
                if len(claimants) > 1
            }
            for pair in combinations(sorted(ballots), 2):
                left, right = ballots[pair[0]], ballots[pair[1]]
                shared = sorted(left & right)
                tally = tallies[pair]
                tally[0] += 1
                for value in shared:
                    tally[1] += rarity[value]
                tally[2] += len(left) + len(right) - len(shared)
        return {
            pair: agreement_rarity / union_size
            for pair, (common, agreement_rarity, union_size)
            in sorted(tallies.items())
            if common >= self.min_common_items
        }


def _tally_ballots(tallies, ballot: dict[str, str]) -> None:
    """Add one item where each party claims one value: a pair agrees
    iff its two values are equal, so it shares one value or none and
    its union is one value or two — no set, no intersection."""
    witnesses = len(ballot) - 2  # everybody but the pair
    claimants: dict[str, int] = {}
    for value in ballot.values():
        claimants[value] = claimants.get(value, 0) + 1
    rarity = {value: _rarity(witnesses, n) for value, n in claimants.items() if n > 1}
    for pair in combinations(sorted(ballot), 2):
        tally = tallies[pair]
        tally[0] += 1
        value = ballot[pair[0]]
        if value == ballot[pair[1]]:
            tally[1] += rarity[value]
            tally[2] += 1
        else:
            tally[2] += 2


def _rarity(witnesses: int, claimants: int) -> float:
    """What agreeing on a value adds to a pair's sum, on an item with
    ``witnesses`` claimants besides the pair, ``claimants`` of all of
    them claiming the value.

    Rarity is measured among *other* parties — two sources agreeing
    on a value everyone else also asserts (a popular truth) is no
    copying evidence, while agreeing on a value nobody else claims
    almost certainly is.  With few independent witnesses the observed
    popularity is unreliable, so it is blended toward the
    uninformative :data:`UNWITNESSED_RARITY` prior in proportion to
    the witness count: one independent dissenter (rarity 1.0) counts
    half, so copier cliques in sparse worlds reach the threshold.
    """
    # Confidence in the observed popularity: 0 with no witnesses, 0.5
    # with one, 1.0 from two up.
    weight = witnesses / 2.0 if witnesses < 2 else 1.0
    popularity = (claimants - 2) / witnesses if witnesses else 0.0
    return (1.0 - weight) * UNWITNESSED_RARITY + weight * (1.0 - popularity)


def _shared_runs(claims: list[Claim]) -> Iterator[list[Claim]]:
    """The claims of each item claimed more than once, items in sorted
    order.  ``claims`` is the estimator's own list: sorted by item in
    place unless it comes in item order already (a ``ClaimSet`` and
    the incremental engine's corpus do), which one comparison per
    neighbour tells."""
    items = list(map(_item_of, claims))
    # Where a claim's item is not above its predecessor's: a repeat, or
    # a step down that sends the list to be sorted.
    repeats = list(compress(count(1), map(ge, items, islice(items, 1, None))))
    if any(items[at - 1] != items[at] for at in repeats):
        claims.sort(key=_item_of)
        items = list(map(_item_of, claims))
        repeats = compress(count(1), map(eq, items, islice(items, 1, None)))
    begin = end = 0
    for at in repeats:
        if at != end:  # claim ``at - 1`` opens a run
            if end:
                yield claims[begin:end]
            begin = at - 1
        end = at + 1
    if end:
        yield claims[begin:end]
