"""Quarantine sink for malformed extractor input records.

The framework ingests four heterogeneous, noisy source types
(Sec. 3.1); at production scale a single malformed page or query
record must not abort a whole extraction stage.  Instead of raising
mid-stage, record validation diverts bad records here, keeping

* a per-source count of diverted records,
* a few sampled examples per source (enough to debug, bounded so a
  poisoned feed cannot balloon the report), and
* a global total checked against a capacity: exceeding it raises
  :class:`~repro.errors.QuarantineOverflowError`, because losing most
  of a source silently would be worse than failing.

Every record guard of a pipeline run diverts into the run's one sink,
so what a stage diverted stays counted when the stage itself fails
afterwards.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.errors import QuarantineOverflowError
from repro.faults import CorruptedRecord, FaultPlan

__all__ = ["Quarantine", "guard_records"]


@dataclass(slots=True)
class Quarantine:
    """Bounded sink of diverted records with per-source accounting.

    Diverting with ``retain=True`` additionally keeps the record
    object itself in a per-source dead-letter hold, so a consumer can
    later list (:meth:`held_items`), inspect, and re-enqueue
    (:meth:`drain`) what was diverted — the serving layer parks
    poison deltas here.  Draining pops: each held record comes back
    exactly once.
    """

    capacity: int = 1000
    sample_limit: int = 3
    total: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    samples: dict[str, list[str]] = field(default_factory=dict)
    # source -> [(reason, record), ...] in diversion order; only
    # retain=True diversions land here (bounded by ``capacity`` like
    # everything else).
    held: dict[str, list[tuple[str, object]]] = field(default_factory=dict)

    def divert(
        self,
        source: str,
        record: object,
        reason: str = "malformed",
        *,
        retain: bool = False,
    ) -> None:
        """Record one bad record; raise when capacity would be exceeded.

        The overflow check runs *before* any mutation: a caller that
        catches :class:`QuarantineOverflowError` (stage isolation does)
        keeps a sink exactly at capacity with stable totals, and every
        later divert raises the same way instead of drifting the
        counters further past the bound.
        """
        if self.total + 1 > self.capacity:
            raise QuarantineOverflowError(
                f"quarantine overflow: capacity {self.capacity} reached "
                f"({self.total} diverted), refusing record from "
                f"{source!r}"
            )
        self.total += 1
        self.counts[source] = self.counts.get(source, 0) + 1
        bucket = self.samples.setdefault(source, [])
        if len(bucket) < self.sample_limit:
            bucket.append(f"{reason}: {repr(record)[:160]}")
        if retain:
            self.held.setdefault(source, []).append((reason, record))

    def held_items(
        self, source: str | None = None
    ) -> list[tuple[str, str, object]]:
        """Non-destructive view of retained records.

        Returns ``(source, reason, record)`` tuples in diversion order,
        optionally restricted to one source.  Inspection never consumes
        — only :meth:`drain` does.
        """
        sources = (
            [source] if source is not None else sorted(self.held)
        )
        return [
            (name, reason, record)
            for name in sources
            for reason, record in self.held.get(name, ())
        ]

    def drain(self, source: str) -> list[object]:
        """Pop every retained record of one source (exactly once).

        The per-source counts/samples stay — the quarantine still
        reports that the diversions *happened* — but the records
        themselves are handed back for re-enqueueing and a second
        drain returns nothing.
        """
        return [record for _reason, record in self.drain_entries(source)]

    def drain_entries(self, source: str) -> list[tuple[str, object]]:
        """Like :meth:`drain` but keeps the ``(reason, record)`` pairs.

        Callers that may have to :meth:`repark` a partially processed
        drain need the reasons back intact.
        """
        return self.held.pop(source, [])

    def repark(
        self, source: str, entries: list[tuple[str, object]]
    ) -> None:
        """Return drained-but-unprocessed entries to the hold.

        The inverse of :meth:`drain_entries` for the tail of a drain
        that could not complete (e.g. a re-publish shed by
        backpressure).  Entries go back *ahead of* anything diverted
        meanwhile, preserving overall diversion order.  Counts and
        totals are untouched: these records were accounted for when
        first diverted, and re-parking is not a new failure.
        """
        if not entries:
            return
        hold = self.held.setdefault(source, [])
        hold[:0] = entries

    def to_dict(self) -> dict:
        """JSON-ready snapshot (sorted for deterministic serialization)."""
        snapshot = {
            "total": self.total,
            "counts": dict(sorted(self.counts.items())),
            "samples": {
                source: list(examples)
                for source, examples in sorted(self.samples.items())
            },
        }
        if self.held:
            # Only when a dead-letter hold is in use, so batch-pipeline
            # report bytes are unchanged for runs that never retain.
            snapshot["held"] = {
                source: len(entries)
                for source, entries in sorted(self.held.items())
            }
        return snapshot


def guard_records(
    records: Iterable[object],
    validator: Callable[[object], bool],
    quarantine: Quarantine,
    source: str,
    *,
    plan: FaultPlan | None = None,
    scope: str | None = None,
    start_index: int = 0,
) -> list[object]:
    """Validate an input stream, diverting bad records to the quarantine.

    When a fault plan is given, each record first passes through its
    corruption hook (``scope``/``start_index`` address records the way
    the plan does); a :class:`~repro.faults.CorruptedRecord` always
    fails validation and is diverted with reason ``injected-corruption``
    so chaos reports distinguish injected damage from organic noise.
    """
    clean: list[object] = []
    for offset, record in enumerate(records):
        if plan is not None and scope is not None:
            record = plan.corrupt_record(scope, start_index + offset, record)
        if isinstance(record, CorruptedRecord):
            quarantine.divert(source, record, reason="injected-corruption")
        elif validator(record):
            clean.append(record)
        else:
            quarantine.divert(source, record)
    return clean
