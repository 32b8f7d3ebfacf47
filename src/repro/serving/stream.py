"""Append-only event log for the one serving consumer.

The serving layer's ingest path is a stream, not a function call:
producers *publish* claim deltas as immutable :class:`StreamEvent`
records, and the log's one consumer (a
:class:`~repro.serving.server.KBServer`) *delivers* them in offset
order with at-least-once semantics.  The pieces:

* **Offsets** — events are numbered densely from 0 in append order.
  The log never reorders and never drops an accepted event.
* **The committed offset** — the consumer's durable progress: the next
  offset it has not finished.  Delivery reads at the committed
  offset, so a consumer that crashed mid-event is redelivered that
  event on restart: at-least-once by construction.  Exactly-once
  *effects* are the consumer's job, via the dedup fence committed
  inside :class:`~repro.serving.version.KBVersion`.
* **At-least-once publishing** — a producer that times out and
  retries may append the same logical event twice.  The log accepts
  both (it cannot know the first append succeeded); the duplicate
  carries the same ``event_id``, and the consumer's fence, a window of
  recent ids, skips it.
* **Backpressure** — the log bounds the *uncommitted backlog*, not
  total history.  When the consumer lags ``capacity`` events behind
  the head, ``append`` sheds load by raising
  :class:`~repro.errors.BackpressureError` with an explicit reason —
  never a silent drop — and counts the rejection in the metrics
  registry (``stream_rejected_total``).
* **Compaction** — offsets are logical, not list indexes.  Events
  below the committed offset are never delivered again, so the log
  drops that prefix and advances :attr:`EventLog.base` (amortized
  O(1): a compaction only runs when the committed prefix is at least
  half the buffer, so the retained prefix stays shorter than the
  backlog).  ``head``, ``lag`` and ``commit_offset`` keep their offset
  semantics, and a long-lived server holds O(backlog) events, not
  O(history).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.errors import BackpressureError, ServingError
from repro.incremental.delta import ClaimDelta, delta_to_json_dict

__all__ = ["EventLog", "StreamEvent", "delta_event_id"]


def delta_event_id(delta: ClaimDelta) -> str:
    """Content-derived event id for retry-safe publishing.

    Two publishes of the same delta content get the same id, so a
    producer that re-publishes after an ambiguous failure is
    deduplicated by the consumer fence.  Distinct deltas that happen
    to share content (legitimate re-assertions) must pass an explicit
    ``event_id`` instead.
    """
    payload = json.dumps(
        delta_to_json_dict(delta), sort_keys=True, separators=(",", ":")
    )
    return "sha:" + hashlib.sha256(payload.encode()).hexdigest()[:24]


@dataclass(frozen=True, slots=True)
class StreamEvent:
    """One immutable log entry: a claim delta at an offset."""

    offset: int
    event_id: str
    delta: ClaimDelta


class EventLog:
    """In-process append-only delta log with one committed offset."""

    def __init__(self, capacity: int = 1024, *, metrics=None) -> None:
        if capacity < 1:
            raise ServingError("event log capacity must be >= 1")
        self.capacity = capacity
        self.metrics = metrics
        self._events: list[StreamEvent] = []
        # Logical offset of _events[0]; rises as the committed prefix
        # compacts away.  All public offsets stay logical.
        self._base = 0
        # Next offset to deliver (== events durably processed).
        self._committed = 0

    # -- producer side -------------------------------------------------
    def append(
        self, delta: ClaimDelta, *, event_id: str | None = None
    ) -> StreamEvent:
        """Publish one delta; returns its immutable log entry.

        ``event_id`` defaults to a content digest
        (:func:`delta_event_id`) so plain publishers get retry-safe
        idempotency for free.  Raises
        :class:`~repro.errors.BackpressureError` when the backlog
        bound would be breached; the log is untouched in that case.
        """
        delta.validate()
        backlog = self.lag
        if backlog >= self.capacity:
            self._count("stream_rejected_total", reason="consumer-lag")
            raise BackpressureError(
                f"event log backlog {backlog} >= capacity "
                f"{self.capacity}: consumer lagging, publish rejected "
                "(retry after the consumer drains)",
                reason="consumer-lag",
            )
        event = StreamEvent(
            offset=self.head,
            event_id=(
                event_id if event_id is not None else delta_event_id(delta)
            ),
            delta=delta,
        )
        self._events.append(event)
        self._count("stream_events_published_total")
        return event

    # -- consumer side -------------------------------------------------
    def next_event(self) -> StreamEvent | None:
        """The next undelivered event (None when caught up).

        Reading does not advance the consumer — only
        :meth:`commit_offset` does, so a consumer that crashes between
        read and commit gets the same event redelivered.
        """
        if self._committed >= self.head:
            return None
        return self._events[self._committed - self._base]

    def commit_offset(self, offset: int) -> None:
        """Durably acknowledge processing up to (excluding) ``offset``."""
        if offset < self._committed or offset > self.head:
            raise ServingError(
                f"invalid offset commit: {offset} "
                f"(committed {self._committed}, head {self.head})"
            )
        self._committed = offset
        # Amortized O(1): only sweep when at least half the buffer is
        # committed, so each retained event is shifted O(1) times.
        droppable = offset - self._base
        if droppable > 0 and droppable * 2 >= len(self._events):
            self.compact()

    # -- compaction ------------------------------------------------------
    @property
    def base(self) -> int:
        """The oldest retained offset (0 until the first compaction)."""
        return self._base

    def compact(self) -> int:
        """Drop every event below the committed offset.

        Returns the number of events dropped.  Offsets are unaffected
        (they are logical); a dropped event is never delivered again.
        """
        drop = self._committed - self._base
        if drop <= 0:
            return 0
        del self._events[:drop]
        self._base += drop
        self._count("stream_compacted_total", amount=drop)
        return drop

    # -- introspection -------------------------------------------------
    @property
    def head(self) -> int:
        """Offset one past the newest event."""
        return self._base + len(self._events)

    @property
    def committed(self) -> int:
        """The consumer's committed offset."""
        return self._committed

    @property
    def lag(self) -> int:
        """Events published but not yet committed."""
        return self.head - self._committed

    def _count(self, name: str, *, amount: int = 1, **labels) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name, **labels).inc(amount)
