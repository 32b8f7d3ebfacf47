"""Pluggable storage backends behind the :class:`TripleStore` facade.

The store's public API (add/remove/match/claims/...) is fixed by the
rest of the pipeline; *where the claims live* is not.  This module
defines the :class:`StorageBackend` contract and the reference
:class:`MemoryBackend` — the pure-dict implementation of
:class:`repro.rdf.store.TripleStore`.  The
disk-resident :class:`~repro.rdf.segments.SegmentBackend` implements
the same contract over mmapped segment files.

Contract notes that matter for byte-identical fusion:

* ``iter_claims()`` / ``claims()`` enumerate live claims in **first
  insertion order** of their ``(triple, provenance)`` key — dict
  semantics: a confidence refresh keeps the key's position, a
  ``remove`` followed by a re-add moves it to the end.  Every backend
  reproduces this order exactly, so their answers compare with ``==``
  (fusion reads the claims in :class:`~repro.fusion.base.ClaimSet`
  order, not in this one).
* ``add`` keeps the maximum confidence per key and is a no-op when the
  stored confidence is already >= the incoming one.  It returns True
  iff the store changed — a new key, or a raised confidence — so a
  caller (the delta journal) never reads back to find out.
* ``remove(triple)`` drops every provenance of the triple and returns
  the claims it dropped (an empty list: the triple was absent), so a
  caller (the delta journal) never reads them first; fully-removed
  triples never ghost in ``subjects()``/``predicates()``/match paths.
* ``claims_for_item(subject, predicate)``, ``claims(triple)`` and the
  list ``remove`` returns hold their claims in the same relative order
  ``iter_claims()`` yields them (first insertion of the key).
  Both backends answer an item or triple read — and ``remove`` and
  ``contains_triple`` — at O(claims of the item): the memory backend
  reads the item's claim keys off its SPO leaf, ``remove`` in one walk
  of it; the segment backend reads the subject's rows of each
  segment's CSR index, each row checked against the tombstones by its
  own triple, plus the same read of its memtable, which is a memory
  backend.  The contract has no batch forms: a caller loops, and the
  loop costs the answer.
* ``count_for_item(subject, predicate)`` is
  ``len(claims_for_item(subject, predicate))`` at the same O(claims of
  the item), with no claim built: the memory backend's SPO leaf length,
  the segment backend's rows folded at the level of their strings.  It
  refuses every row the claim read refuses, with the same exception.
* ``copy()`` yields a backend whose answers never change when the
  original mutates afterwards (and vice versa); it may share
  structure with the original to get there, as long as neither side
  ever writes a container the other can reach.  The memory backend
  shares its SPO index copy-on-write: a copy costs two top-level
  ``dict.copy()`` calls (the claims and the index), and each side
  shallow-copies a subject's predicate dict or an item's leaf the
  first time it writes it.
* ``match`` with a bound subject reads that subject's index entries.
  Neither backend has an index for a pattern with an unbound subject:
  the memory backend answers it with one O(claims) walk of its claim
  keys, the segment backend with one walk of its live claims in
  position order, so both answer in ``iter_claims()`` order.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Iterator

from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value

__all__ = ["MemoryBackend", "StorageBackend"]


class StorageBackend(abc.ABC):
    """Storage contract of the :class:`~repro.rdf.store.TripleStore`.

    Implementations own claim persistence and the index structures;
    the store facade owns nothing but delegation.  ``flush``,
    ``compact`` and ``close`` are lifecycle no-ops for purely
    in-memory backends.
    """

    # -- mutation ------------------------------------------------------
    @abc.abstractmethod
    def add(self, scored: ScoredTriple) -> bool:
        """Add one claim; keeps the max confidence on duplicates.

        True iff the store changed: a new key or a raised confidence.
        """

    def add_all(self, scored: Iterable[ScoredTriple]) -> None:
        """Bulk insert; backends override with a batched single pass."""
        for one in scored:
            self.add(one)

    @abc.abstractmethod
    def remove(self, triple: Triple) -> list[ScoredTriple]:
        """Remove every claim of ``triple``; returns the claims removed,
        in ``iter_claims()`` order (none: it was absent)."""

    # -- size / iteration ----------------------------------------------
    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of live claims (triple/provenance keys)."""

    @abc.abstractmethod
    def iter_claims(self) -> Iterator[ScoredTriple]:
        """Live claims in first-insertion order, without copying.

        Callers that mutate while iterating must walk the
        ``claims()`` list instead.
        """

    @abc.abstractmethod
    def contains_triple(self, triple: Triple) -> bool:
        """True if any live claim asserts ``triple``."""

    # -- lookup --------------------------------------------------------
    @abc.abstractmethod
    def match(
        self,
        subject: str | None = None,
        predicate: str | None = None,
        obj: Value | None = None,
    ) -> list[Triple]:
        """Distinct triples matching a pattern with ``None`` wildcards."""

    @abc.abstractmethod
    def claims(self, triple: Triple | None = None) -> list[ScoredTriple]:
        """All claims, or all claims of one specific triple, in
        ``iter_claims()`` order."""

    @abc.abstractmethod
    def claims_for_item(
        self, subject: str, predicate: str
    ) -> list[ScoredTriple]:
        """Every claim about the data item ``(subject, predicate)``,
        in ``iter_claims()`` order."""

    @abc.abstractmethod
    def count_for_item(self, subject: str, predicate: str) -> int:
        """How many claims ``claims_for_item(subject, predicate)``
        returns, without building them; it refuses what that read
        refuses, with the same exception."""

    @abc.abstractmethod
    def objects(self, subject: str, predicate: str) -> set[Value]:
        """Distinct object values claimed for a data item."""

    @abc.abstractmethod
    def subjects(self) -> set[str]:
        """All subjects appearing in live claims."""

    @abc.abstractmethod
    def predicates(self, subject: str | None = None) -> set[str]:
        """All predicates, optionally restricted to one subject."""

    # -- bulk / lifecycle ----------------------------------------------
    @abc.abstractmethod
    def copy(self) -> "StorageBackend":
        """An independently-mutable backend holding the same claims."""

    def flush(self) -> None:
        """Persist pending mutations (no-op for in-memory backends)."""

    def compact(self) -> None:
        """Merge persistent structures (no-op for in-memory backends)."""

    def close(self) -> None:
        """Release OS resources (no-op for in-memory backends)."""


class MemoryBackend(StorageBackend):
    """The in-memory dict store with one index, SPO.

    Deduplicates on the full ``(triple, provenance)`` pair: the same
    triple asserted by two different sources is kept twice (fusion
    needs both claims), while re-adding an identical claim is a no-op
    that refreshes its confidence to the maximum seen.

    An item's SPO leaf is its claim keys, in claim-dict order: a new
    key is appended, a confidence refresh leaves it in place, and a
    ``remove`` followed by a re-add moves it to the end, as in the
    dict.  So every item-level read — ``claims_for_item``,
    ``count_for_item`` (the leaf's length), ``claims(triple)``,
    ``contains_triple``, ``objects``, ``match(subject=…)`` and
    ``remove`` — reads one leaf, at O(claims of the item), and a write
    files its claim key once.  Every stage reads by item, so there is
    no POS or OSP index: a ``match`` with an unbound subject walks the
    claim keys once (O(claims)), and answers in claim-dict order under
    any hash seed.
    """

    def __init__(self) -> None:
        # (triple, provenance) -> ScoredTriple
        self._claims: dict[tuple[Triple, Provenance], ScoredTriple] = {}
        # subject -> predicate -> the item's claim keys, in dict order
        self._spo: dict[str, dict[str, list[tuple[Triple, Provenance]]]] = {}
        # None until the first ``copy()``.  From then on the subjects
        # whose predicate dict, and the ``(subject, predicate)`` items
        # whose leaf, this backend has made its own since; any other
        # container may be shared with a copy.
        self._owned: set[str | tuple[str, str]] | None = None

    def __len__(self) -> int:
        return len(self._claims)

    def iter_claims(self) -> Iterator[ScoredTriple]:
        return iter(self._claims.values())

    def _keys(self, subject: str, predicate: str):
        """The item's claim keys in claim-dict order; read, never write."""
        by_predicate = self._spo.get(subject)
        if by_predicate is None:
            return ()
        return by_predicate.get(predicate, ())

    def contains_triple(self, triple: Triple) -> bool:
        return any(
            key[0] == triple
            for key in self._keys(triple.subject, triple.predicate)
        )

    # -- mutation ------------------------------------------------------
    def add(self, scored: ScoredTriple) -> bool:
        # One key hash for a new key, as in add_all: the key is new
        # when the dict grew.
        key = (scored.triple, scored.provenance)
        claims = self._claims
        size = len(claims)
        existing = claims.setdefault(key, scored)
        if len(claims) > size:
            self._index(key)
            return True
        if existing.confidence >= scored.confidence:
            return False
        claims[key] = scored
        return True

    def add_all(self, scored: Iterable[ScoredTriple]) -> None:
        """Single-pass bulk insert over an iterable (streams fine).

        Equivalent to repeated :meth:`add` but cheaper per claim: the
        claim dict and index root are bound once outside the loop,
        and ``dict.setdefault`` installs a fresh key with a *single*
        key hash where the get-then-assign in :meth:`add` pays two —
        and hashing a ``(triple, provenance)`` tuple recursively
        hashes every field, so it dominates the insert.  A key is new
        when the dict grew: the same claim object twice in one batch
        finds itself the second time.  Insertion order — and
        therefore fusion float accumulation order — is identical to
        the loop.  A backend that shares index containers with a copy
        takes the loop, whose :meth:`_index` knows which.
        """
        if self._owned is not None:
            return super().add_all(scored)
        claims_setdefault = self._claims.setdefault
        claims = self._claims
        size = len(claims)
        spo = self._spo
        for one in scored:
            key = (one.triple, one.provenance)
            existing = claims_setdefault(key, one)
            if len(claims) == size:
                if existing.confidence < one.confidence:
                    claims[key] = one
                continue
            size += 1
            triple = one.triple
            subject, predicate = triple.subject, triple.predicate
            by_predicate = spo.setdefault(subject, {})
            keys = by_predicate.get(predicate)
            if keys is None:
                by_predicate[predicate] = [key]
            else:
                keys.append(key)

    def _index(self, key: tuple[Triple, Provenance]) -> None:
        triple = key[0]
        subject, predicate = triple.subject, triple.predicate
        if self._owned is not None:
            self._own(subject, predicate).append(key)
            return
        self._spo.setdefault(subject, {}).setdefault(
            predicate, []
        ).append(key)

    def _own(self, subject: str, predicate: str) -> list:
        """The leaf ``_spo[subject][predicate]``, it and
        ``_spo[subject]`` each created or shallow-copied unless the
        ownership record says this backend already made it its own:
        the path of one index write."""
        owned = self._owned
        spo = self._spo
        by_predicate = spo.get(subject)
        if subject not in owned:
            by_predicate = spo[subject] = (
                {} if by_predicate is None else by_predicate.copy()
            )
            owned.add(subject)
        item = (subject, predicate)
        keys = by_predicate.get(predicate)
        if item not in owned:
            keys = by_predicate[predicate] = (
                [] if keys is None else keys.copy()
            )
            owned.add(item)
        return keys

    def remove(self, triple: Triple) -> list[ScoredTriple]:
        # One walk of the item's SPO leaf splits it into the triple's
        # keys and the leaf that stays.
        dead: list[tuple[Triple, Provenance]] = []
        kept: list[tuple[Triple, Provenance]] = []
        for key in self._keys(triple.subject, triple.predicate):
            (dead if key[0] == triple else kept).append(key)
        if not dead:
            return []
        self._set_leaf(triple.subject, triple.predicate, kept)
        claims = self._claims
        return [claims.pop(key) for key in dead]

    def _set_leaf(self, subject: str, predicate: str, keys: list) -> None:
        """Make ``keys``, a fresh list, ``_spo[subject][predicate]`` —
        or, when it is empty, drop that key and an emptied
        ``_spo[subject]`` (a pruned key leaves the ownership record
        with its container)."""
        owned = self._owned
        spo = self._spo
        by_predicate = spo[subject]
        if owned is not None and subject not in owned:
            by_predicate = spo[subject] = by_predicate.copy()
            owned.add(subject)
        if keys:
            by_predicate[predicate] = keys
            if owned is not None:
                owned.add((subject, predicate))
            return
        del by_predicate[predicate]
        if owned is not None:
            owned.discard((subject, predicate))
        if not by_predicate:
            del spo[subject]
            if owned is not None:
                owned.discard(subject)

    # -- lookup --------------------------------------------------------
    def match(
        self,
        subject: str | None = None,
        predicate: str | None = None,
        obj: Value | None = None,
    ) -> list[Triple]:
        if subject is not None:
            by_predicate = self._spo.get(subject, {})
            leaves = (
                [by_predicate.get(predicate, ())]
                if predicate is not None
                else by_predicate.values()
            )
            return [
                triple
                for keys in leaves
                for triple in dict.fromkeys(key[0] for key in keys)
                if obj is None or triple.obj == obj
            ]
        # No index leads to an unbound subject: one walk of the claim
        # keys, each compared by the bound positions, then deduplicated
        # in claim-dict order.
        return list(
            dict.fromkeys(
                key[0]
                for key in self._claims
                if (predicate is None or key[0].predicate == predicate)
                and (obj is None or key[0].obj == obj)
            )
        )

    def claims(self, triple: Triple | None = None) -> list[ScoredTriple]:
        if triple is None:
            return list(self._claims.values())
        claims = self._claims
        return [
            claims[key]
            for key in self._keys(triple.subject, triple.predicate)
            if key[0] == triple
        ]

    def claims_for_item(
        self, subject: str, predicate: str
    ) -> list[ScoredTriple]:
        claims = self._claims
        return [claims[key] for key in self._keys(subject, predicate)]

    def count_for_item(self, subject: str, predicate: str) -> int:
        return len(self._keys(subject, predicate))

    def objects(self, subject: str, predicate: str) -> set[Value]:
        return {key[0].obj for key in self._keys(subject, predicate)}

    def subjects(self) -> set[str]:
        return set(self._spo)

    def predicates(self, subject: str | None = None) -> set[str]:
        if subject is None:
            return {
                predicate
                for by_predicate in self._spo.values()
                for predicate in by_predicate
            }
        return set(self._spo.get(subject, {}))

    def copy(self) -> "MemoryBackend":
        """A clone that shares the (immutable) claims with this backend
        and, copy-on-write, every predicate dict and leaf of the SPO
        index.

        ``dict.copy()`` reuses the stored key hashes — re-inserting
        every ``(triple, provenance)`` key through ``add_all`` would
        hash each field again.  Both sides start over with empty
        ownership records and shallow-copy an index path the first
        time they write it (:meth:`_own`).  Ownership goes by key: the
        ``id()`` of a freed container can come back on a shared one.
        One record per side and a clone made without ``__init__``
        keep a copy at a handful of containers.
        """
        clone = MemoryBackend.__new__(MemoryBackend)
        clone._claims = self._claims.copy()
        clone._spo = self._spo.copy()
        self._owned = set()
        clone._owned = set()
        return clone
