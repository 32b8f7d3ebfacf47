"""An indexed triple store over a pluggable storage backend.

Every stage of the pipeline reads claims by data item
``(subject, predicate)`` — extraction output, attribute resolution,
fusion's per-item rounds, every served read — so an item read costs
the claims of the item on every backend.  Scored extractions are
stored alongside their provenance so that fusion can retrieve every
claim about a data item.  A ``match`` with an unbound subject is for
one-shot queries (``repro query``): the default backend answers it
with one walk of the claims.

*Where* claims live is delegated to a :class:`StorageBackend`
(:mod:`repro.rdf.backend`): the default :class:`MemoryBackend` keeps
the claims in a dict with one SPO index over it; the
:class:`~repro.rdf.segments.SegmentBackend` spills to mmapped segment
files so the corpus is disk-bound instead of RAM-bound.  Every backend
preserves the same claim-iteration order, and fusion reads claims in
their :class:`~repro.fusion.base.ClaimSet` order anyway, so fusion
verdicts do not depend on the backend choice.

Iteration is **zero-copy**: ``iter(store)`` streams the backend's live
claims without materializing a list.  Callers that mutate the store
while iterating must walk the :meth:`TripleStore.claims` list instead.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.rdf.backend import MemoryBackend, StorageBackend
from repro.rdf.triple import ScoredTriple, Triple, Value


class TripleStore:
    """RDF claim store with item-level reads and pattern matches.

    The store deduplicates on the full ``(triple, provenance)`` pair:
    the same triple asserted by two different sources is kept twice
    (fusion needs both claims), while re-adding an identical claim is a
    no-op that refreshes its confidence to the maximum seen.

    ``backend`` defaults to a fresh in-memory :class:`MemoryBackend`;
    pass a :class:`~repro.rdf.segments.SegmentBackend` for
    disk-resident storage.

    Every method is one backend call, and the only batch form is
    ``add_all``: a caller that reads several items or retracts several
    triples loops over :meth:`claims_for_item` / :meth:`remove`, each
    O(claims of the item) on every backend.
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

    def remove(self, triple: Triple) -> list[ScoredTriple]:
        """Remove every claim of ``triple``; returns the claims removed,
        in iteration order (none: the triple was absent).

        Fully-removed triples never ghost in ``subjects()``,
        ``predicates()`` or the match paths.
        """
        return self._backend.remove(triple)

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

        A bound subject reads that subject's claims; any other pattern
        costs what the backend's unbound-subject scan costs (one walk
        of the claims on the memory backend).
        """
        return self._backend.match(subject, predicate, obj)

    def claims(self, triple: Triple | None = None) -> list[ScoredTriple]:
        """All claims, or all claims of one specific triple."""
        return self._backend.claims(triple)

    def claims_for_item(self, subject: str, predicate: str) -> list[ScoredTriple]:
        """Every claim about the data item ``(subject, predicate)``."""
        return self._backend.claims_for_item(subject, predicate)

    def count_for_item(self, subject: str, predicate: str) -> int:
        """How many claims :meth:`claims_for_item` returns, none built."""
        return self._backend.count_for_item(subject, predicate)

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

