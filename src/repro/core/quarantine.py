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

    It keeps counts and samples, never the records themselves: a
    consumer that must hand a diverted item back (the KB server's
    poison deltas) holds it itself.
    """

    capacity: int = 1000
    sample_limit: int = 3
    total: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    samples: dict[str, list[str]] = field(default_factory=dict)

    def divert(
        self, source: str, record: object, reason: str = "malformed"
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

    def to_dict(self) -> dict:
        """JSON-ready snapshot (sorted for deterministic serialization)."""
        return {
            "total": self.total,
            "counts": dict(sorted(self.counts.items())),
            "samples": {
                source: list(examples)
                for source, examples in sorted(self.samples.items())
            },
        }


def guard_records(
    records: Iterable[object],
    validator: Callable[[object], bool],
    quarantine: Quarantine,
    source: str,
    *,
    plan: FaultPlan | None = None,
    start_index: int = 0,
) -> list[object]:
    """Validate an input stream, diverting bad records to the quarantine.

    When a fault plan is given, each record first passes through its
    corruption hook (scope ``records:<source>``, indexed from
    ``start_index``); a :class:`~repro.faults.CorruptedRecord` always
    fails validation and is diverted with reason ``injected-corruption``
    so chaos reports distinguish injected damage from organic noise.
    """
    scope = f"records:{source}"
    clean: list[object] = []
    for offset, record in enumerate(records):
        if plan is not None:
            record = plan.corrupt_record(scope, start_index + offset, record)
        if isinstance(record, CorruptedRecord):
            quarantine.divert(source, record, reason="injected-corruption")
        elif validator(record):
            clean.append(record)
        else:
            quarantine.divert(source, record)
    return clean
