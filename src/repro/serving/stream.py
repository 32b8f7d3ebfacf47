"""Append-only event log with consumer groups and explicit load shedding.

The serving layer's ingest path is a stream, not a function call
(the async-first consumer-group architecture the Engram ADR in
SNIPPETS.md documents): producers *publish* claim deltas
as immutable :class:`StreamEvent` records, and the serving consumer
*delivers* them in offset order with at-least-once semantics.  The
pieces:

* **Offsets** — events are numbered densely from 0 in append order.
  The log never reorders and never drops an accepted event.
* **Consumer groups** — each named group tracks a *committed offset*
  (the next offset it has durably processed up to).  Delivery reads
  from the committed offset, so a consumer that crashed mid-event is
  redelivered that event on restart: at-least-once by construction.
  Exactly-once *effects* are the consumer's job, via the dedup fence
  committed inside :class:`~repro.serving.version.KBVersion`.
* **At-least-once publishing** — a producer that times out and
  retries may append the same logical event twice.  The log accepts
  both (it cannot know the first append succeeded); the duplicate
  carries the same ``event_id``, and the consumer's fence skips it.
* **Backpressure** — the log bounds *uncommitted backlog*, not total
  history.  When the slowest registered group lags ``capacity`` events
  behind the head, ``append`` sheds load by raising
  :class:`~repro.errors.BackpressureError` with an explicit reason —
  never a silent drop — and counts the rejection in the metrics
  registry (``stream_rejected_total``).
* **Compaction** — offsets are logical, not list indexes.  Once every
  registered group has committed past an event it can never be
  delivered again, so the log drops the committed prefix and advances
  :attr:`EventLog.base` (amortized O(1): a compaction only runs when
  the droppable prefix is at least half the buffer).  ``head``,
  ``lag``, ``commit_offset`` and ``read`` keep their offset semantics;
  ``read`` of a compacted offset raises exactly like a never-written
  one.  A long-lived server therefore holds O(backlog) events, not
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
    """In-process append-only delta log with per-group offset tracking."""

    def __init__(self, capacity: int = 1024, *, metrics=None) -> None:
        if capacity < 1:
            raise ServingError("event log capacity must be >= 1")
        self.capacity = capacity
        self.metrics = metrics
        self._events: list[StreamEvent] = []
        # Logical offset of _events[0]; rises as the committed prefix
        # compacts away.  All public offsets stay logical.
        self._base = 0
        # group -> next offset to deliver (== events durably processed).
        self._committed: dict[str, int] = {}
        # event_id -> retained occurrences; consumers age their dedup
        # fences against this (an id with no retained occurrence can
        # never be delivered again).
        self._id_counts: dict[str, int] = {}

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
        backlog = self.head - self.slowest_committed()
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
        self._id_counts[event.event_id] = (
            self._id_counts.get(event.event_id, 0) + 1
        )
        self._count("stream_events_published_total")
        return event

    # -- consumer side -------------------------------------------------
    def register(self, group: str, *, offset: int = 0) -> None:
        """Register a consumer group starting at ``offset``.

        Re-registering an existing group is a no-op (the committed
        offset is durable state owned by the group's committed
        version, not reset by reconnecting).
        """
        if group in self._committed:
            # Reconnect: committed progress is durable, never reset.
            return
        if offset < self._base or offset > self.head:
            raise ServingError(
                f"cannot register {group!r} at offset {offset}: log "
                f"retains [{self._base}, {self.head}]"
            )
        self._committed[group] = offset

    def unregister(self, group: str) -> None:
        """Remove a consumer group from the backpressure bound.

        A decommissioned consumer that is never unregistered clamps
        ``slowest_committed`` forever: once it lags ``capacity`` events
        every publish rejects, wedging the log for the consumers that
        are still alive.  Unregistering releases the bound (and lets
        the committed prefix compact past the dead group's offset).
        Unknown groups raise — silently "removing" a typo would leave
        the real dead group wedging the log.
        """
        if group not in self._committed:
            raise ServingError(f"unknown consumer group {group!r}")
        del self._committed[group]

    def next_event(self, group: str) -> StreamEvent | None:
        """The next undelivered event for a group (None when caught up).

        Reading does not advance the group — only :meth:`commit_offset`
        does, so a consumer that crashes between read and commit gets
        the same event redelivered.
        """
        offset = self._require_group(group)
        if offset >= self.head:
            return None
        return self._events[offset - self._base]

    def commit_offset(self, group: str, offset: int) -> None:
        """Durably acknowledge processing up to (excluding) ``offset``."""
        current = self._require_group(group)
        if offset < current or offset > self.head:
            raise ServingError(
                f"invalid offset commit for {group!r}: {offset} "
                f"(committed {current}, head {self.head})"
            )
        self._committed[group] = offset
        self._maybe_compact()

    # -- compaction ------------------------------------------------------
    @property
    def base(self) -> int:
        """The oldest retained offset (0 until the first compaction)."""
        return self._base

    def has_id(self, event_id: str) -> bool:
        """Whether any *retained* event carries this id.

        ``False`` means every occurrence has compacted away, so no
        consumer can ever be delivered it again — the signal dedup
        fences use to age out entries
        (:meth:`repro.serving.server.KBServer.step`).
        """
        return event_id in self._id_counts

    def compact(self) -> int:
        """Drop every event all groups have committed past.

        Returns the number of events dropped.  Offsets are unaffected
        (they are logical); only :meth:`read` of a dropped offset
        changes observable behavior, raising like any other
        out-of-range offset.  With no registered groups nothing is
        droppable — commitment is what proves an event unreachable.
        """
        if not self._committed:
            return 0
        drop = min(self.slowest_committed(), self.head) - self._base
        if drop <= 0:
            return 0
        for event in self._events[:drop]:
            count = self._id_counts[event.event_id] - 1
            if count:
                self._id_counts[event.event_id] = count
            else:
                del self._id_counts[event.event_id]
        del self._events[:drop]
        self._base += drop
        self._count("stream_compacted_total", amount=drop)
        return drop

    def _maybe_compact(self) -> None:
        # Amortized O(1): only sweep when at least half the buffer is
        # droppable, so each retained event is shifted O(1) times.
        droppable = self.slowest_committed() - self._base
        if droppable > 0 and droppable * 2 >= len(self._events):
            self.compact()

    # -- introspection -------------------------------------------------
    @property
    def head(self) -> int:
        """Offset one past the newest event."""
        return self._base + len(self._events)

    def committed(self, group: str) -> int:
        """The group's committed offset."""
        return self._require_group(group)

    def lag(self, group: str) -> int:
        """Events published but not yet committed by the group."""
        return self.head - self._require_group(group)

    def slowest_committed(self) -> int:
        """The minimum committed offset across groups (base if none).

        With no registered groups this is the log's base — **not** the
        head — so the backlog bound degrades to an absolute cap on
        retained events: a producer-only log still cannot grow without
        bound (and, never having committed anything, never compacts).
        """
        if not self._committed:
            return self._base
        return min(self._committed.values())

    def read(self, offset: int) -> StreamEvent:
        """Random-access read (inspection/replay tooling).

        Raises for offsets never written *and* for offsets already
        compacted away — history below :attr:`base` is gone.
        """
        if not self._base <= offset < self.head:
            raise ServingError(
                f"offset {offset} out of range [{self._base}, "
                f"{self.head})"
            )
        return self._events[offset - self._base]

    def _require_group(self, group: str) -> int:
        offset = self._committed.get(group)
        if offset is None:
            raise ServingError(f"unknown consumer group {group!r}")
        return offset

    def _count(self, name: str, *, amount: int = 1, **labels) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name, **labels).inc(amount)
