"""Query surface over one pinned KB version.

A :class:`KBReader` answers every query from exactly one
:class:`~repro.serving.version.KBVersion` — the version it pinned at
construction.  Because versions are immutable, a reader is wait-free
with respect to ingest: deltas committing new versions never change
what an existing reader answers, and a fresh reader picks up the new
version wholesale.  This is snapshot isolation by construction, not by
locking.

Three query families:

* **point lookup** — :meth:`lookup` resolves one data item
  ``(subject, predicate)`` to its fused truth values with belief
  scores and supporting-claim counts (the store's SPO index);
* **scans** — :meth:`scan_subject` enumerates every fused fact of one
  entity (SPO), :meth:`scan_predicate` every entity holding a fused
  value for one attribute (the version's predicate index);
* **top-k** — :meth:`top_entities` ranks subjects by the summed
  belief of their fused facts, a cheap "most strongly attested
  entities" ranking (the version's ranking).

Both indexes are the version's
:class:`~repro.fusion.readindex.ReadIndex`, built when the engine
primes and patched by each delta over its region, then carried by the
committed version: a reader holds no state of its own but its read
counters.

What a read costs: :meth:`lookup` is a dict probe into the fused
truths and one into the beliefs per value (a truth set is sorted only
when it holds two or more), one tuple for the :class:`FactView`, and
the store's ``count_for_item``, which builds no claim: the length of
the memory backend's SPO leaf, or on the segment backend the item's
rows of the CSR index of each segment the store's subject route names
for the subject — no other segment is probed — straight off the mmap.
When one segment holds them and the item has no tombstone and no
memtable claim, the count is those rows, each still refused as the
claim read refuses it; otherwise they are folded as strings with the
item's keys in the memtable's index, a row probed against the
tombstones only when its item has one — O(claims of the item) either
way.
:meth:`scan_subject` is the store's ``predicates(subject)`` — the same
decode-free fold over the subject's rows on the segment backend, one
index probe on the memory backend — then one ``lookup`` per predicate;
:meth:`scan_predicate` slices the version's sorted subject list of
the predicate and costs one ``lookup`` per answer; :meth:`top_entities`
slices the version's ranking, k tuples.  Neither builds anything, so
the first read of a fresh reader costs what every later one does.
Each read kind resolves its ``serving_reads_total`` counter once per
reader, on its first read.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.serving.version import KBVersion

__all__ = ["FactView", "KBReader"]


class FactView(NamedTuple):
    """One fused data item as a reader returns it.

    ``values`` are the fused-true value keys (sorted, deterministic);
    ``beliefs`` maps each to its fusion belief score; ``claims`` counts
    the supporting claims the store holds for the item (every value,
    not only the fused-true ones).

    A view is a read-only tuple, built in one allocation: assigning a
    field raises ``AttributeError``, and a view compares equal to a
    plain tuple of the same five fields.
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
        # ``serving_reads_total`` handles by read kind, each resolved
        # on the kind's first read: a labelled key is rendered once.
        self._read_counters: dict[str, object] = {}

    # -- point lookups -------------------------------------------------
    def lookup(self, subject: str, predicate: str) -> FactView:
        """Fused truths for one data item (empty view when undecided)."""
        self._count_read("lookup")
        item = (subject, predicate)
        result = self.version.result
        truth = result.truths.get(item, ())
        values = tuple(sorted(truth)) if len(truth) > 1 else tuple(truth)
        belief = result.belief.get
        return FactView(
            subject, predicate, values,
            {value: belief((item, value), 0.0) for value in values},
            self.version.store.count_for_item(subject, predicate),
        )

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
        least one fused-true value are returned.  Scans walk the
        pinned version's sorted list of the predicate's fused-true
        subjects — ``limit`` slices it instead of materializing and
        sorting every matching store subject, so a ``limit=1`` scan
        touches one subject, not the whole corpus.
        """
        self._count_read("scan_predicate")
        subjects = self.version.read_index.by_predicate.get(predicate, ())
        if limit is not None:
            subjects = subjects[:max(0, limit)]
        return [self.lookup(subject, predicate) for subject in subjects]

    # -- top-k ---------------------------------------------------------
    def top_entities(self, k: int) -> list[tuple[str, float]]:
        """The k subjects with the highest summed fused-fact belief.

        Deterministic: score descending, then subject ascending; ``k``
        at or below zero answers nothing.  A slice of the pinned
        version's ranking, which the version carries built.
        """
        self._count_read("top_entities")
        return [
            (subject, -negated)
            for negated, subject in self.version.read_index.ranking[:max(0, k)]
        ]

    # -- plumbing ------------------------------------------------------
    def _count_read(self, kind: str) -> None:
        if self.metrics is None:
            return
        counter = self._read_counters.get(kind)
        if counter is None:
            counter = self._read_counters[kind] = self.metrics.counter(
                "serving_reads_total", kind=kind
            )
        counter.inc()
