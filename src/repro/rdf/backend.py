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
  ``remove`` followed by a re-add moves it to the end.  Fusion float
  accumulation order follows claim order, so every backend must
  reproduce this order exactly.
* ``add`` keeps the maximum confidence per key and is a no-op when the
  stored confidence is already >= the incoming one.  It returns True
  iff the store changed — a new key, or a raised confidence — so a
  caller (the delta journal) never reads back to find out.
* ``remove(triple)`` drops every provenance of the triple and returns
  how many claim keys went away; fully-removed triples never ghost in
  ``subjects()``/``predicates()``/match paths.
  ``remove_all(triples)`` is that for a batch, and hands back the
  claims each triple lost.
* ``claims_for_item(subject, predicate)``, ``claims(triple)``,
  ``claims_for_items(items)`` and the lists ``remove_all`` returns
  hold their claims in the same relative order ``iter_claims()``
  yields them (first insertion of the key).
  What they cost is the backend's business.  The segment backend
  answers an item, triple or subject read — and ``remove`` and
  ``contains_triple`` — at O(answer): the subject's rows of each
  segment's CSR index plus the item's keys in its memtable index, each
  row checked against the tombstones by its own triple.  The memory
  backend has no per-item index, so its one-item lookups and
  ``remove`` each walk the claim dict — which is why a caller with
  several items to read or several triples to retract (the
  incremental engine's dirty-item re-read, the delta journal) asks for
  them in one ``claims_for_items`` / ``remove_all`` call, one walk
  each on the memory backend.
* ``copy()`` yields a backend whose answers never change when the
  original mutates afterwards (and vice versa); it may share
  structure with the original to get there, as long as neither side
  ever writes a container the other can reach.  The memory backend
  shares its triple indexes copy-on-write: a copy costs three
  top-level ``dict.copy()`` calls, and each side shallow-copies a
  second-level dict or a leaf set the first time it writes it.
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

    #: Short name used by config/CLI wiring ("memory", "segment").
    name = "backend"

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
    def remove(self, triple: Triple) -> int:
        """Remove every claim of ``triple``; returns how many existed."""

    def remove_all(
        self, triples: Iterable[Triple]
    ) -> dict[Triple, list[ScoredTriple]]:
        """:meth:`remove` every triple of ``triples``; by triple, the
        claims it lost, in ``iter_claims()`` order (none: it was absent).

        One lookup and one removal per distinct triple here; a backend
        whose single lookups walk the store overrides this with one
        walk for all of them.
        """
        lost: dict[Triple, list[ScoredTriple]] = {}
        for triple in triples:
            if triple not in lost:
                lost[triple] = self.claims(triple)
                self.remove(triple)
        return lost

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

    def claims_for_items(
        self, items: Iterable[tuple[str, str]]
    ) -> dict[tuple[str, str], list[ScoredTriple]]:
        """``claims_for_item`` of every item of ``items``, by item.

        One lookup per item here; a backend whose single lookups walk
        the store overrides this with one walk for all of them.
        """
        return {item: self.claims_for_item(*item) for item in items}

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
    """The original in-memory dict store with SPO/POS/OSP indexes.

    Deduplicates on the full ``(triple, provenance)`` pair: the same
    triple asserted by two different sources is kept twice (fusion
    needs both claims), while re-adding an identical claim is a no-op
    that refreshes its confidence to the maximum seen.
    """

    name = "memory"

    def __init__(self) -> None:
        # (triple, provenance) -> ScoredTriple
        self._claims: dict[tuple[Triple, Provenance], ScoredTriple] = {}
        # subject -> predicate -> set of object values
        self._spo: dict[str, dict[str, set[Value]]] = {}
        # predicate -> object -> set of subjects
        self._pos: dict[str, dict[Value, set[str]]] = {}
        # object -> subject -> set of predicates
        self._osp: dict[Value, dict[str, set[str]]] = {}
        # None until the first ``copy()``.  From then on, per index:
        # the first-level keys whose second-level dict, and the
        # ``(first, second)`` keys whose leaf set, this backend has made
        # its own since; any other container may be shared with a copy.
        self._owned: tuple[tuple[set, set], ...] | None = None

    def __len__(self) -> int:
        return len(self._claims)

    def iter_claims(self) -> Iterator[ScoredTriple]:
        return iter(self._claims.values())

    def contains_triple(self, triple: Triple) -> bool:
        by_predicate = self._spo.get(triple.subject)
        if by_predicate is None:
            return False
        objects = by_predicate.get(triple.predicate)
        return objects is not None and triple.obj in objects

    # -- mutation ------------------------------------------------------
    def add(self, scored: ScoredTriple) -> bool:
        key = (scored.triple, scored.provenance)
        existing = self._claims.get(key)
        if existing is not None and existing.confidence >= scored.confidence:
            return False
        self._claims[key] = scored
        if existing is None:
            self._index(scored.triple)
        return True

    def add_all(self, scored: Iterable[ScoredTriple]) -> None:
        """Single-pass bulk insert over an iterable (streams fine).

        Equivalent to repeated :meth:`add` but cheaper per claim: the
        claim dict and index roots are bound once outside the loop,
        and ``dict.setdefault`` installs a fresh key with a *single*
        key hash where the get-then-assign in :meth:`add` pays two —
        and hashing a ``(triple, provenance)`` tuple recursively
        hashes every field, so it dominates the insert.  Insertion
        order — and therefore fusion float accumulation order — is
        identical to the loop.  A backend that shares index containers
        with a copy takes the loop, whose :meth:`_index` knows which.
        """
        if self._owned is not None:
            return super().add_all(scored)
        claims_setdefault = self._claims.setdefault
        claims = self._claims
        spo, pos, osp = self._spo, self._pos, self._osp
        for one in scored:
            key = (one.triple, one.provenance)
            existing = claims_setdefault(key, one)
            if existing is not one:
                if existing.confidence < one.confidence:
                    claims[key] = one
                continue
            triple = one.triple
            subject, predicate = triple.subject, triple.predicate
            obj = triple.obj
            spo.setdefault(subject, {}).setdefault(
                predicate, set()
            ).add(obj)
            pos.setdefault(predicate, {}).setdefault(
                obj, set()
            ).add(subject)
            osp.setdefault(obj, {}).setdefault(
                subject, set()
            ).add(predicate)

    def _index(self, triple: Triple) -> None:
        subject, predicate, obj = triple.subject, triple.predicate, triple.obj
        if self._owned is not None:
            spo, pos, osp = self._owned
            self._own(self._spo, spo, subject, predicate).add(obj)
            self._own(self._pos, pos, predicate, obj).add(subject)
            self._own(self._osp, osp, obj, subject).add(predicate)
            return
        self._spo.setdefault(subject, {}).setdefault(
            predicate, set()
        ).add(obj)
        self._pos.setdefault(predicate, {}).setdefault(
            obj, set()
        ).add(subject)
        self._osp.setdefault(obj, {}).setdefault(
            subject, set()
        ).add(predicate)

    @staticmethod
    def _own(index: dict, owned, first, second) -> set:
        """The leaf ``index[first][second]``, it and ``index[first]``
        each created or shallow-copied unless ``owned`` says this
        backend already made it its own: the path of one index write."""
        firsts, leaves = owned
        by_second = index.get(first)
        if first not in firsts:
            by_second = index[first] = (
                {} if by_second is None else by_second.copy()
            )
            firsts.add(first)
        leaf = by_second.get(second)
        if (first, second) not in leaves:
            leaf = by_second[second] = set() if leaf is None else set(leaf)
            leaves.add((first, second))
        return leaf

    def remove(self, triple: Triple) -> int:
        keys = [key for key in self._claims if key[0] == triple]
        for key in keys:
            del self._claims[key]
        if keys:
            self._unindex(triple)
        return len(keys)

    def remove_all(
        self, triples: Iterable[Triple]
    ) -> dict[Triple, list[ScoredTriple]]:
        """One walk of the claim dict for all of ``triples``."""
        lost: dict[Triple, list[ScoredTriple]] = {
            triple: [] for triple in triples
        }
        if not lost:
            return lost
        # The two-string item key hashes in C; ``Triple.__hash__`` is a
        # Python call, paid only by the claims of a retracted item.
        items = {triple.item for triple in lost}
        dead = []
        for key, scored in self._claims.items():
            triple = key[0]
            if (triple.subject, triple.predicate) in items:
                held = lost.get(triple)
                if held is not None:
                    held.append(scored)
                    dead.append(key)
        for key in dead:
            del self._claims[key]
        for triple, held in lost.items():
            if held:
                self._unindex(triple)
        return lost

    def _unindex(self, triple: Triple) -> None:
        spo, pos, osp = self._owned or (None, None, None)
        self._discard_pruning(
            self._spo, spo, triple.subject, triple.predicate, triple.obj
        )
        self._discard_pruning(
            self._pos, pos, triple.predicate, triple.obj, triple.subject
        )
        self._discard_pruning(
            self._osp, osp, triple.obj, triple.subject, triple.predicate
        )

    @classmethod
    def _discard_pruning(cls, index: dict, owned, first, second, leaf) -> None:
        """Drop ``leaf`` from ``index[first][second]``, pruning empties
        (a pruned key leaves the ownership record with its container)."""
        by_second = index.get(first)
        if by_second is None:
            return
        leaves = by_second.get(second)
        if leaves is None:
            return
        if owned is not None:
            leaves = cls._own(index, owned, first, second)
            by_second = index[first]
        leaves.discard(leaf)
        if not leaves:
            del by_second[second]
            if owned is not None:
                owned[1].discard((first, second))
        if not by_second:
            del index[first]
            if owned is not None:
                owned[0].discard(first)

    # -- lookup --------------------------------------------------------
    def match(
        self,
        subject: str | None = None,
        predicate: str | None = None,
        obj: Value | None = None,
    ) -> list[Triple]:
        if subject is not None:
            by_predicate = self._spo.get(subject, {})
            predicates = (
                [predicate] if predicate is not None else list(by_predicate)
            )
            result = []
            for pred in predicates:
                for value in by_predicate.get(pred, ()):
                    if obj is None or value == obj:
                        result.append(Triple(subject, pred, value))
            return result
        if predicate is not None:
            by_object = self._pos.get(predicate, {})
            objects = [obj] if obj is not None else list(by_object)
            return [
                Triple(subj, predicate, value)
                for value in objects
                for subj in by_object.get(value, ())
            ]
        if obj is not None:
            by_subject = self._osp.get(obj, {})
            return [
                Triple(subj, pred, obj)
                for subj, preds in by_subject.items()
                for pred in preds
            ]
        seen: set[Triple] = set()
        out: list[Triple] = []
        for scored in self._claims.values():
            if scored.triple not in seen:
                seen.add(scored.triple)
                out.append(scored.triple)
        return out

    def claims(self, triple: Triple | None = None) -> list[ScoredTriple]:
        if triple is None:
            return list(self._claims.values())
        return [
            scored
            for (stored, _prov), scored in self._claims.items()
            if stored == triple
        ]

    def claims_for_item(
        self, subject: str, predicate: str
    ) -> list[ScoredTriple]:
        return [
            scored
            for scored in self._claims.values()
            if scored.triple.subject == subject
            and scored.triple.predicate == predicate
        ]

    def claims_for_items(
        self, items: Iterable[tuple[str, str]]
    ) -> dict[tuple[str, str], list[ScoredTriple]]:
        """One walk of the claim dict for all of ``items``."""
        found: dict[tuple[str, str], list[ScoredTriple]] = {
            item: [] for item in items
        }
        if found:
            for scored in self._claims.values():
                triple = scored.triple
                held = found.get((triple.subject, triple.predicate))
                if held is not None:
                    held.append(scored)
        return found

    def objects(self, subject: str, predicate: str) -> set[Value]:
        return set(self._spo.get(subject, {}).get(predicate, set()))

    def subjects(self) -> set[str]:
        return set(self._spo)

    def predicates(self, subject: str | None = None) -> set[str]:
        if subject is None:
            return set(self._pos)
        return set(self._spo.get(subject, {}))

    def copy(self) -> "MemoryBackend":
        """A clone that shares the (immutable) claims with this backend
        and, copy-on-write, every second-level dict and leaf set of the
        triple indexes.

        ``dict.copy()`` reuses the stored key hashes — re-inserting
        every ``(triple, provenance)`` key through ``add_all`` would
        hash each field again.  Both sides start over with empty
        ownership records and shallow-copy an index path the first
        time they write it (:meth:`_own`).  Ownership goes by key: the
        ``id()`` of a freed container can come back on a shared one.
        """
        clone = MemoryBackend()
        clone._claims = self._claims.copy()
        clone._spo = self._spo.copy()
        clone._pos = self._pos.copy()
        clone._osp = self._osp.copy()
        self._owned = tuple((set(), set()) for _ in range(3))
        clone._owned = tuple((set(), set()) for _ in range(3))
        return clone
