"""An indexed triple store over a pluggable storage backend.

The store keeps three indexes (SPO, POS, OSP) so that any lookup with
at least one bound position runs in time proportional to the size of
its answer, mirroring the classic triple-table layout of RDF
databases.  Scored extractions are stored alongside their provenance
so that fusion can retrieve every claim about a data item.

*Where* claims live is delegated to a :class:`StorageBackend`
(:mod:`repro.rdf.backend`): the default :class:`MemoryBackend` keeps
the original pure-dict layout; the
:class:`~repro.rdf.segments.SegmentBackend` spills to mmapped segment
files so the corpus is disk-bound instead of RAM-bound.  Every backend
preserves the same claim-iteration order, so fusion verdicts do not
depend on the backend choice.

Iteration is **zero-copy**: ``iter(store)`` streams the backend's live
claims without materializing a list.  Callers that mutate the store
while iterating must walk the :meth:`TripleStore.claims` list instead.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.rdf.backend import MemoryBackend, StorageBackend
from repro.rdf.triple import ScoredTriple, Triple, Value


class TripleStore:
    """RDF claim store with SPO/POS/OSP lookups.

    The store deduplicates on the full ``(triple, provenance)`` pair:
    the same triple asserted by two different sources is kept twice
    (fusion needs both claims), while re-adding an identical claim is a
    no-op that refreshes its confidence to the maximum seen.

    ``backend`` defaults to a fresh in-memory :class:`MemoryBackend`;
    pass a :class:`~repro.rdf.segments.SegmentBackend` for
    disk-resident storage.
    """

    def __init__(self, backend: StorageBackend | None = None) -> None:
        self._backend = backend if backend is not None else MemoryBackend()

    @property
    def backend(self) -> StorageBackend:
        """The storage backend this store delegates to."""
        return self._backend

    def __len__(self) -> int:
        """Number of stored claims (triple/provenance pairs)."""
        return len(self._backend)

    def __iter__(self) -> Iterator[ScoredTriple]:
        """Stream claims lazily; see :meth:`claims` for mutation-safe
        iteration."""
        return self._backend.iter_claims()

    def __contains__(self, triple: Triple) -> bool:
        return self._backend.contains_triple(triple)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, scored: ScoredTriple) -> bool:
        """Add one claim; keeps the max confidence on duplicates.

        True iff the store changed: a new key or a raised confidence.
        """
        return self._backend.add(scored)

    def add_all(self, scored: Iterable[ScoredTriple]) -> None:
        """Add many claims in one backend-level batch."""
        self._backend.add_all(scored)

    def remove(self, triple: Triple) -> int:
        """Remove every claim of ``triple``; returns how many were removed.

        Fully-removed triples never ghost in ``subjects()``,
        ``predicates()`` or the match paths.
        """
        return self._backend.remove(triple)

    def remove_all(
        self, triples: Iterable[Triple]
    ) -> dict[Triple, list[ScoredTriple]]:
        """:meth:`remove` several triples; by triple, the claims it lost.

        One call, so a backend without a per-triple index (the memory
        backend) can answer with one walk instead of two per triple.
        """
        return self._backend.remove_all(triples)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def match(
        self,
        subject: str | None = None,
        predicate: str | None = None,
        obj: Value | None = None,
    ) -> list[Triple]:
        """Return distinct triples matching a pattern with ``None`` wildcards.

        Uses the most selective available index; a fully unbound pattern
        enumerates the store.
        """
        return self._backend.match(subject, predicate, obj)

    def claims(self, triple: Triple | None = None) -> list[ScoredTriple]:
        """All claims, or all claims of one specific triple."""
        return self._backend.claims(triple)

    def claims_for_item(self, subject: str, predicate: str) -> list[ScoredTriple]:
        """Every claim about the data item ``(subject, predicate)``."""
        return self._backend.claims_for_item(subject, predicate)

    def claims_for_items(
        self, items: Iterable[tuple[str, str]]
    ) -> dict[tuple[str, str], list[ScoredTriple]]:
        """:meth:`claims_for_item` of several data items, by item.

        One call, so a backend without a per-item index (the memory
        backend) can answer with one walk instead of one per item.
        """
        return self._backend.claims_for_items(items)

    def objects(self, subject: str, predicate: str) -> set[Value]:
        """Distinct object values claimed for a data item."""
        return self._backend.objects(subject, predicate)

    def subjects(self) -> set[str]:
        """All subjects appearing in the store."""
        return self._backend.subjects()

    def predicates(self, subject: str | None = None) -> set[str]:
        """All predicates, optionally restricted to one subject."""
        return self._backend.predicates(subject)

    # ------------------------------------------------------------------
    # Lifecycle (no-ops on in-memory backends)
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Persist pending mutations (durability point for disk backends)."""
        self._backend.flush()

    def compact(self) -> None:
        """Merge the backend's persistent structures."""
        self._backend.compact()

    def close(self) -> None:
        """Release backend OS resources (mmaps, file handles)."""
        self._backend.close()

    def copy(self) -> "TripleStore":
        """An independently mutable store holding the same claims.

        Neither store's answers — iteration, ``match``,
        ``claims_for_item``, ``objects`` and friends — change when the
        other mutates afterwards: the invariant the serving layer's
        snapshot-isolated reads stand on.  Backed by
        :meth:`StorageBackend.copy`, which the segment backend
        implements as a reader-sharing clone (segments are immutable
        files), so copying a disk-resident store does not duplicate
        the corpus.
        """
        return TripleStore(self._backend.copy())

