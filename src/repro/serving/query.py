"""Query surface over one pinned KB version.

A :class:`KBReader` answers every query from exactly one
:class:`~repro.serving.version.KBVersion` — the version it pinned at
construction.  Because versions are immutable, a reader is wait-free
with respect to ingest: deltas committing new versions never change
what an existing reader answers, and a fresh reader picks up the new
version wholesale.  This is snapshot isolation by construction, not by
locking.

Three query families, each riding an existing index:

* **point lookup** — :meth:`lookup` resolves one data item
  ``(subject, predicate)`` to its fused truth values with belief
  scores and supporting-claim counts (SPO path);
* **scans** — :meth:`scan_subject` enumerates every fused fact of one
  entity (SPO), :meth:`scan_predicate` every entity holding a fused
  value for one attribute (POS);
* **top-k** — :meth:`top_entities` ranks subjects by the summed
  belief of their fused facts, a cheap "most strongly attested
  entities" ranking computed lazily once per reader and cached
  (versions are immutable, so the cache can never go stale).

What a read costs: :meth:`lookup` is two dict probes into the fused
result plus the store's ``claims_for_item`` — O(claims of the item) on
the segment backend (the subject's rows of each segment's CSR index
plus the bounded memtable, straight off the mmap), one walk of the
claim dict on the memory backend, which has no per-item index and
spends practically all of a served read there.  :meth:`scan_subject`
is one ``lookup`` per predicate of the subject; :meth:`scan_predicate`
and :meth:`top_entities` build an O(fused items) index once per reader,
then cost one ``lookup`` per answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serving.version import KBVersion

__all__ = ["FactView", "KBReader"]


@dataclass(frozen=True, slots=True)
class FactView:
    """One fused data item as a reader returns it.

    ``values`` are the fused-true value keys (sorted, deterministic);
    ``beliefs`` maps each to its fusion belief score; ``claims`` counts
    the supporting claims the store holds for the item (every value,
    not only the fused-true ones).
    """

    subject: str
    predicate: str
    values: tuple[str, ...]
    beliefs: dict[str, float]
    claims: int

    def is_empty(self) -> bool:
        return not self.values

    def best(self) -> str | None:
        """The highest-belief fused value (ties broken lexically)."""
        if not self.values:
            return None
        return max(self.values, key=lambda value: (self.beliefs[value], value))


class KBReader:
    """Reads pinned to one immutable KB version."""

    def __init__(self, version: KBVersion, *, metrics=None) -> None:
        self.version = version
        self.metrics = metrics
        self._ranking: list[tuple[float, str]] | None = None
        self._by_predicate: dict[str, list[str]] | None = None

    # -- point lookups -------------------------------------------------
    def lookup(self, subject: str, predicate: str) -> FactView:
        """Fused truths for one data item (empty view when undecided)."""
        self._count_read("lookup")
        item = (subject, predicate)
        result = self.version.result
        values = tuple(sorted(result.truths.get(item, ())))
        return FactView(
            subject=subject,
            predicate=predicate,
            values=values,
            beliefs={
                value: result.belief_of(item, value) for value in values
            },
            claims=len(self.version.store.claims_for_item(subject, predicate)),
        )

    def belief(self, subject: str, predicate: str, value: str) -> float:
        """Belief score of one (item, value) pair (0.0 when unknown)."""
        self._count_read("belief")
        return self.version.result.belief_of((subject, predicate), value)

    # -- scans ---------------------------------------------------------
    def scan_subject(self, subject: str) -> list[FactView]:
        """Every fused fact of one entity, predicate-sorted.

        Predicates come from the pinned store's SPO index; items the
        store asserts but fusion did not decide appear as empty views,
        so callers can distinguish "no claims" from "undecided".
        """
        self._count_read("scan_subject")
        return [
            self.lookup(subject, predicate)
            for predicate in sorted(self.version.store.predicates(subject))
        ]

    def scan_predicate(
        self, predicate: str, *, limit: int | None = None
    ) -> list[FactView]:
        """Every entity with a fused value for one attribute.

        Subject-sorted and optionally bounded; only items with at
        least one fused-true value are returned.  Scans walk a
        per-predicate index of fused-true subjects built lazily once
        per reader (the pinned version is immutable, so it can never
        go stale) — ``limit`` then slices the index instead of
        materializing and sorting every matching store subject, so a
        ``limit=1`` scan touches one subject, not the whole corpus.
        """
        self._count_read("scan_predicate")
        if self._by_predicate is None:
            by_predicate: dict[str, list[str]] = {}
            for (subject, item_predicate), values in (
                self.version.result.truths.items()
            ):
                if values:
                    by_predicate.setdefault(item_predicate, []).append(
                        subject
                    )
            for subjects in by_predicate.values():
                subjects.sort()
            self._by_predicate = by_predicate
        subjects = self._by_predicate.get(predicate, [])
        if limit is not None:
            subjects = subjects[:max(0, limit)]
        return [self.lookup(subject, predicate) for subject in subjects]

    # -- top-k ---------------------------------------------------------
    def top_entities(self, k: int) -> list[tuple[str, float]]:
        """The k subjects with the highest summed fused-fact belief.

        Deterministic: score descending, then subject ascending.  The
        full ranking is computed once per reader and cached — the
        pinned version can never change under it.
        """
        self._count_read("top_entities")
        if self._ranking is None:
            scores: dict[str, float] = {}
            result = self.version.result
            for (subject, _predicate), value_set in result.truths.items():
                for value in value_set:
                    scores[subject] = scores.get(subject, 0.0) + (
                        result.belief.get(((subject, _predicate), value), 0.0)
                    )
            self._ranking = sorted(
                ((score, subject) for subject, score in scores.items()),
                key=lambda pair: (-pair[0], pair[1]),
            )
        return [
            (subject, score) for score, subject in self._ranking[:k]
        ]

    # -- plumbing ------------------------------------------------------
    def _count_read(self, kind: str) -> None:
        if self.metrics is not None:
            self.metrics.counter("serving_reads_total", kind=kind).inc()
