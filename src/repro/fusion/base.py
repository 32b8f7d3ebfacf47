"""Fusion claim model and method interface.

Knowledge fusion works on *claims*: a (Web source, extractor) pair
asserting a value for a data item ``(subject, predicate)``.  Claims are
derived from scored triples; values are compared by a case-folded key
so formatting variants of the same value agree.

Every fusion method consumes a :class:`ClaimSet` and returns a
:class:`FusionResult` mapping each item to its decided truths with
belief scores.

Fusion is defined over a *set* of claims, so a claim set has one
canonical order, :data:`claim_key` order, whatever order its claims
came in: items sorted, each followed by its own claims.  The stages
between a claim corpus and a kernel inherit that order instead of
rebuilding it: a stage that maps claims one to one (reweighting),
keeps or drops whole items (sharding, a region of the incremental
engine) or rebuilds an item's claims (hierarchy expansion) hands its
deduplicated list to :meth:`ClaimSet.adopt`, and a caller that walks
every item reads :meth:`ClaimSet.spans`.  Only :meth:`ClaimSet.add`,
on arbitrary input, hashes claim keys.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain
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
#: the more confident one), and the canonical claim order.
claim_key = attrgetter("item", "value", "source_id", "extractor_id")
_source_of = attrgetter("source_id")


class ClaimSet:
    """Indexed collection of claims, in one canonical order.

    The canonical order is :data:`claim_key` order: items sorted, each
    item's claims by value, source and extractor.  A set built from
    arbitrary input — by the constructor, :meth:`add` or
    :meth:`from_scored_triples` — deduplicates identical keys, keeping
    the maximum confidence (the first claim on a tie), and is sorted
    when it is first read: what it iterates, and so every float a
    fusion method adds, depends on the claims alone, not on the order
    they came in or on the hash seed.

    Claims are grouped by item in flat tables — item → slot, slot →
    start, the claims themselves — not in a dict and a list per item:
    a set has about as many items as claims, and every long-lived
    container is walked by each full collector pass.  :meth:`values_of`
    builds an item's dict on demand.

    Only :meth:`add` hashes claim keys.  A list that is deduplicated
    already — another set's claims, mapped one to one, filtered item
    by item, or with claims inserted inside an item — is taken as it
    stands by :meth:`adopt`; grouping it is one scan for item
    boundaries, which refuses a list where an item's claims lie apart.
    """

    def __init__(self, claims: Iterable[Claim] = ()) -> None:
        # The claims: sorted, or an adopted list as it was handed over.
        self._order: list[Claim] = []
        # Claim key → claim while claims added since the last sort wait
        # for the next one; None otherwise.
        self._pending: dict[tuple, Claim] | None = None
        # The grouping tables, None until ``_reindex`` builds them.
        self._slot_of: dict[Item, int] | None = None
        for claim in claims:
            self.add(claim)

    @classmethod
    def adopt(cls, claims: list[Claim]) -> "ClaimSet":
        """The set over ``claims``, which hold no two claims of one key
        and each item's claims together: no claim is hashed, and the
        list is neither copied nor reordered (a later :meth:`add`
        sorts a copy)."""
        adopted = cls()
        adopted._order = claims
        return adopted

    def add(self, claim: Claim) -> None:
        pending = self._pending
        if pending is None:
            pending = self._pending = {
                claim_key(held): held for held in self._order
            }
            self._slot_of = None
        key = claim_key(claim)
        held = pending.setdefault(key, claim)
        if held is not claim and not held.confidence >= claim.confidence:
            pending[key] = claim

    def _reindex(self) -> None:
        """Sort what was added, then group: one dict store per item.
        Raises :class:`FusionError` on an adopted list where an item's
        claims lie apart."""
        if self._slot_of is not None:
            return
        pending = self._pending
        if pending is not None:
            self._order = [pending[key] for key in sorted(pending)]
            self._pending = None
        slot_of: dict[Item, int] = {}
        counts: list[int] = []
        previous = None
        for claim in self._order:
            item = claim.item
            if item != previous:
                previous = item
                if slot_of.setdefault(item, len(counts)) != len(counts):
                    raise FusionError(
                        f"adopted claims of item {item!r} lie apart"
                    )
                counts.append(0)
            counts[-1] += 1
        self._slot_of = slot_of
        self._starts = list(accumulate(counts, initial=0))

    def __len__(self) -> int:
        pending = self._pending
        return len(self._order if pending is None else pending)

    def __iter__(self) -> Iterator[Claim]:
        self._reindex()
        return iter(self._order)

    def items(self) -> list[Item]:
        self._reindex()
        return list(self._slot_of)

    def spans(self) -> tuple[list[Item], list[Claim], list[int]]:
        """``(items, claims, starts)``: the :meth:`items`, the claims in
        iteration order, and where each item's claims begin — item *i*
        owns ``claims[starts[i]:starts[i + 1]]``.  What a caller that
        walks every item reads in place of one :meth:`values_of` dict
        (or one slice) per item; the two lists are the set's own, to be
        read, not written."""
        self._reindex()
        return list(self._slot_of), self._order, self._starts

    def values_of(self, item: Item) -> dict[str, list[Claim]]:
        """Value key → claims asserting it, for one item (values in
        first-claimed order, claims in claim order), built per call."""
        self._reindex()
        values: dict[str, list[Claim]] = {}
        slot = self._slot_of.get(item)
        if slot is not None:
            starts = self._starts
            for claim in self._order[starts[slot]:starts[slot + 1]]:
                held = values.get(claim.value)
                if held is None:
                    values[claim.value] = [claim]
                else:
                    held.append(claim)
        return values

    def sources(self) -> set[str]:
        return {claim.source_id for claim in self}

    def extractors(self) -> set[str]:
        return {claim.extractor_id for claim in self}

    def sources_claiming(self, item: Item) -> list[str]:
        """Sources that assert *any* value for an item, in claim order."""
        return claiming_sources(self.values_of(item))

    def stats(self) -> "ClaimSetStats":
        """Size summary of the claim set (items/values/sources/claims)."""
        self._reindex()
        return ClaimSetStats(
            n_items=len(self._slot_of),
            n_values=len({(claim.item, claim.value) for claim in self}),
            n_sources=len(self.sources()),
            n_extractors=len(self.extractors()),
            n_claims=len(self._order),
        )

    @staticmethod
    def from_scored_triples(triples: Iterable[ScoredTriple]) -> "ClaimSet":
        """Build a claim set from extractor output.

        One sort is the canonical order (a key's duplicates by
        confidence, then surface), and one pass keeps what :meth:`add`
        keeps — the highest confidence, the first on a tie — so a walk
        reads the claims in the order they were allocated (walks over
        the same claims allocated in the store's order ran up to a
        fifth slower on a 2-CPU x86 host).
        """
        keyed = sorted(
            (
                scored.triple.subject,
                scored.triple.predicate,
                value_key(scored.triple.obj.lexical),
                scored.provenance.source_id,
                scored.provenance.extractor_id,
                scored.confidence,
                scored.triple.obj.lexical,
            )
            for scored in triples
        )
        claims: list[Claim] = []
        last = None
        for subject, predicate, value, source, extractor, confidence, lexical in keyed:
            key = (subject, predicate, value, source, extractor)
            if key == last:
                if not confidence > claims[-1].confidence:
                    continue
                claims.pop()
            last = key
            claims.append(
                Claim(key[:2], value, lexical, source, extractor, confidence)
            )
        return ClaimSet.adopt(claims)


def claiming_sources(values: dict[str, list[Claim]]) -> list[str]:
    """The sources behind one :meth:`ClaimSet.values_of` answer, each
    once, value by value, claim by claim (multi-truth sums in this
    order, so there is one way to build it)."""
    return list(
        dict.fromkeys(map(_source_of, chain.from_iterable(values.values())))
    )


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


def check_iterations(max_iterations: int) -> int:
    """``max_iterations`` of an iterative method, refused below 1: with
    no round every belief stays 0.0, yet truths would still be decided
    (by value key)."""
    if max_iterations < 1:
        raise FusionError("max_iterations must be at least 1")
    return max_iterations


def normalize_beliefs(beliefs: dict[str, float]) -> dict[str, float]:
    """Scale a value→belief map so the maximum is 1 (empty-safe)."""
    if not beliefs:
        return {}
    top = max(beliefs.values())
    if top <= 0:
        return {value: 0.0 for value in beliefs}
    return {value: score / top for value, score in beliefs.items()}
