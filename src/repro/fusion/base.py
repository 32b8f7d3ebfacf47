"""Fusion claim model and method interface.

Knowledge fusion works on *claims*: a (Web source, extractor) pair
asserting a value for a data item ``(subject, predicate)``.  Claims are
derived from scored triples; values are compared by a case-folded key
so formatting variants of the same value agree.

Every fusion method consumes a :class:`ClaimSet` and returns a
:class:`FusionResult` mapping each item to its decided truths with
belief scores.

Fusion is per data item, so a claim set is its claims *grouped by
item*, and the stages between a claim corpus and a kernel inherit that
grouping instead of rebuilding it: a stage that maps claims one to one
(reweighting), keeps or drops whole items (sharding, a region of the
incremental engine) or inserts claims inside an item (hierarchy
expansion) hands its deduplicated list to :meth:`ClaimSet.adopt`, and
a caller that walks every item reads :meth:`ClaimSet.runs`.  Only
:meth:`ClaimSet.add`, on arbitrary input, hashes claim keys.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from operator import attrgetter

from repro.errors import FusionError
from repro.rdf.triple import ScoredTriple

Item = tuple[str, str]  # (subject, predicate)


def value_key(lexical: str) -> str:
    """Canonical comparison key for a claimed value."""
    return " ".join(lexical.split()).casefold()


@dataclass(frozen=True, slots=True)
class Claim:
    """One source's assertion of one value for one item."""

    item: Item
    value: str  # canonical value key
    lexical: str  # a representative original surface
    source_id: str
    extractor_id: str
    confidence: float = 1.0


#: What makes two claims the same claim (:meth:`ClaimSet.add` keeps
#: the more confident one).
claim_key = attrgetter("item", "value", "source_id", "extractor_id")


class ClaimSet:
    """Indexed collection of claims.

    Deduplicates identical (item, value, source, extractor) claims,
    keeping the maximum confidence at the first one's position.

    Claims are grouped by item in flat tables — item → slot, slot →
    start, the claims by item in first-appearance order — not in a
    dict and a list per item: a set has about as many items as claims,
    and every long-lived container is walked by each full collector
    pass.  :meth:`values_of` builds an item's dict on demand.

    Only :meth:`add` hashes claim keys.  A list that is deduplicated
    already — another set's claims, mapped one to one, filtered item
    by item, or with claims inserted inside an item — is taken as it
    is by :meth:`adopt`, and where its items are contiguous (canonical
    claims are) the grouping is one scan for item boundaries.
    """

    def __init__(self, claims: Iterable[Claim] = ()) -> None:
        # Insertion order; a refreshed claim stays where it was.
        self._order: list[Claim] = []
        # Claim key → position in ``_order``; None on an adopted list
        # until the first ``add``.
        self._at: dict[tuple, int] | None = {}
        # The grouping tables are ``_reindex``'s to build.
        self._stale = True
        for claim in claims:
            self.add(claim)

    @classmethod
    def adopt(cls, claims: list[Claim]) -> "ClaimSet":
        """The set over ``claims``, which hold no two claims of one
        key: no claim is hashed, and the list is not copied (a later
        :meth:`add` copies it first)."""
        adopted = cls()
        adopted._order = claims
        adopted._at = None
        return adopted

    def add(self, claim: Claim) -> None:
        at = self._at
        if at is None:
            self._order = list(self._order)
            at = self._at = {
                claim_key(held): position
                for position, held in enumerate(self._order)
            }
        order = self._order
        position = at.setdefault(claim_key(claim), len(order))
        if position == len(order):
            order.append(claim)
        elif order[position].confidence >= claim.confidence:
            return
        else:
            order[position] = claim
        self._stale = True

    def _reindex(self) -> None:
        """Regroup after an :meth:`add` or an adoption: count per item
        — one dict probe per run of one item's claims — then place,
        unless no item's claims lie apart and the claims are grouped
        as they stand.  ``_positions`` maps a grouped index to the
        claim's position in ``_order``."""
        if not self._stale:
            return
        order = self._order
        slot_of: dict[Item, int] = {}
        counts: list[int] = []
        apart = False
        previous = slot = None
        for claim in order:
            item = claim.item
            if item != previous:
                previous = item
                slot = slot_of.setdefault(item, len(counts))
                if slot == len(counts):
                    counts.append(0)
                else:
                    apart = True
            counts[slot] += 1
        starts = list(accumulate(counts, initial=0))
        if apart:
            fill = starts[:-1]
            grouped: list = [None] * len(order)
            positions: Sequence[int] = [0] * len(order)
            for position, claim in enumerate(order):
                slot = slot_of[claim.item]
                grouped[fill[slot]] = claim
                positions[fill[slot]] = position
                fill[slot] += 1
        else:
            grouped, positions = order, range(len(order))
        self._slot_of, self._starts = slot_of, starts
        self._grouped, self._positions = grouped, positions
        self._stale = False

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        return iter(list(self._order))

    def items(self) -> list[Item]:
        self._reindex()
        return list(self._slot_of)

    def runs(self) -> Iterator[tuple[Item, list[Claim]]]:
        """Every item with its claims (in insertion order), in
        :meth:`items` order: what a caller that walks every item reads
        in place of one :meth:`values_of` dict per item."""
        self._reindex()
        grouped, starts = self._grouped, self._starts
        for item, begin, end in zip(self._slot_of, starts, starts[1:]):
            yield item, grouped[begin:end]

    def positions(self) -> Sequence[int]:
        """Where each claim of :meth:`runs`, runs laid end to end,
        stands in iteration order."""
        self._reindex()
        return self._positions

    def values_of(self, item: Item) -> dict[str, list[Claim]]:
        """Value key → claims asserting it, for one item (values in
        first-claimed order, claims in insertion order), built per call."""
        self._reindex()
        values: dict[str, list[Claim]] = {}
        slot = self._slot_of.get(item)
        if slot is not None:
            starts = self._starts
            for claim in self._grouped[starts[slot]:starts[slot + 1]]:
                held = values.get(claim.value)
                if held is None:
                    values[claim.value] = [claim]
                else:
                    held.append(claim)
        return values

    def sources(self) -> set[str]:
        return {claim.source_id for claim in self._order}

    def extractors(self) -> set[str]:
        return {claim.extractor_id for claim in self._order}

    def sources_claiming(self, item: Item) -> set[str]:
        """Sources that assert *any* value for an item."""
        return claiming_sources(self.values_of(item))

    def stats(self) -> "ClaimSetStats":
        """Size summary of the claim set (items/values/sources/claims)."""
        self._reindex()
        return ClaimSetStats(
            n_items=len(self._slot_of),
            n_values=len(
                {(claim.item, claim.value) for claim in self._grouped}
            ),
            n_sources=len(self.sources()),
            n_extractors=len(self.extractors()),
            n_claims=len(self._order),
        )

    @staticmethod
    def from_scored_triples(triples: Iterable[ScoredTriple]) -> "ClaimSet":
        """Build a claim set from extractor output."""
        claims = ClaimSet()
        for scored in triples:
            triple = scored.triple
            claims.add(
                Claim(
                    item=triple.item,
                    value=value_key(triple.obj.lexical),
                    lexical=triple.obj.lexical,
                    source_id=scored.provenance.source_id,
                    extractor_id=scored.provenance.extractor_id,
                    confidence=scored.confidence,
                )
            )
        return claims


def claiming_sources(values: dict[str, list[Claim]]) -> set[str]:
    """The sources behind one :meth:`ClaimSet.values_of` answer, added
    value by value, claim by claim (multi-truth sums in this set's
    iteration order, so there is one way to build it)."""
    return {claim.source_id for claims in values.values() for claim in claims}


@dataclass(slots=True)
class ClaimSetStats:
    """Size summary of a :class:`ClaimSet`."""

    n_items: int
    n_values: int
    n_sources: int
    n_extractors: int
    n_claims: int


@lru_cache(maxsize=1 << 16)
def _single_truth(value: str) -> frozenset[str]:
    """One shared set per value: most items decide one value, and a
    re-fusion that confirms it then leaves the collector nothing new
    (bounded: an evicted value's set is built again)."""
    return frozenset((value,))


@dataclass(slots=True)
class FusionResult:
    """Decided truths and beliefs of one fusion run.

    A truth set is a ``frozenset``, written by :meth:`decide` or by
    rebinding ``truths[item]``: results share their sets — a hierarchy
    wrapper with its base method's result, a merged result with the
    cached per-component results it was merged from — and the type is
    what keeps one holder from changing another's verdicts.
    """

    method: str
    truths: dict[Item, frozenset[str]] = field(default_factory=dict)
    belief: dict[tuple[Item, str], float] = field(default_factory=dict)
    source_quality: dict[str, float] = field(default_factory=dict)
    iterations: int = 0
    # Round at which the fixed point converged (parameter delta under
    # the method's tolerance), or None when the method ran all of
    # ``max_iterations`` without converging (or does not iterate).
    converged_at: int | None = None

    def decide(self, item: Item, values: list[str]) -> None:
        """Bind ``item``'s truth set to ``values``, frozen in the order
        given — the order the reference loops add them to their sets,
        so the set iterates as theirs does."""
        self.truths[item] = (
            _single_truth(values[0]) if len(values) == 1
            else frozenset(values)
        )

    def is_true(self, item: Item, value: str) -> bool:
        return value in self.truths.get(item, ())

    def belief_of(self, item: Item, value: str) -> float:
        return self.belief.get((item, value), 0.0)

    def canonical_bytes(self) -> bytes:
        """Canonical byte serialization of the whole result.

        Sorts every mapping, so two results with different dict
        insertion orders but identical decisions, beliefs, source
        qualities and round counts serialize identically.  This is
        the equality the incremental subsystem's byte-identity
        contract is stated in (``apply_delta`` vs full re-fusion at
        ``tolerance=0``).
        """
        return repr(
            (
                self.method,
                sorted(
                    (item, sorted(values))
                    for item, values in self.truths.items()
                ),
                sorted(self.belief.items()),
                sorted(self.source_quality.items()),
                self.iterations,
                self.converged_at,
            )
        ).encode()


class FusionMethod(abc.ABC):
    """Interface shared by every truth-discovery / fusion method."""

    name: str = "fusion"

    @abc.abstractmethod
    def fuse(self, claims: ClaimSet) -> FusionResult:
        """Resolve conflicts and return decided truths."""

    def _check_nonempty(self, claims: ClaimSet) -> None:
        if len(claims) == 0:
            raise FusionError(f"{self.name}: empty claim set")


def normalize_beliefs(beliefs: dict[str, float]) -> dict[str, float]:
    """Scale a value→belief map so the maximum is 1 (empty-safe)."""
    if not beliefs:
        return {}
    top = max(beliefs.values())
    if top <= 0:
        return {value: 0.0 for value in beliefs}
    return {value: score / top for value, score in beliefs.items()}
