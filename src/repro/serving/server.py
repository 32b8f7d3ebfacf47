"""The crash-safe KB server: stream consumption + versioned serving.

:class:`KBServer` is the single consumer of an :class:`EventLog` and
the single writer of a :class:`VersionedKB`.  One :meth:`step`
processes one event end to end:

1. **deliver** — read the event at the group's committed offset
   (``stream:deliver`` fault point).  Reading does not advance
   anything, so a crash here costs nothing but a redelivery.
2. **fence check** — if the event id is already in the committed
   version's dedup fence, the delta's effects are in the served state:
   skip the apply entirely and just acknowledge the offset.  This is
   what makes at-least-once delivery *exactly-once application*: both
   publisher retries (same id, two offsets) and post-commit crash
   redelivery (same offset re-read) land here.
3. **apply** — journal the delta through the incremental engine under
   a deterministic :class:`~repro.faults.RetryPolicy` loop
   (``stream:apply``, attempt-aware).  A failure whose engine sequence
   advanced anyway crashed *after* the engine's internal commit point
   — the delta is in; treat it as applied, never re-apply.  A failure
   that exhausts the budget is a **poison delta**: it is diverted into
   the :class:`~repro.core.quarantine.Quarantine` dead-letter hold
   (listable, inspectable, re-enqueuable exactly once via
   :meth:`requeue_quarantined`), fenced so redelivery skips it, and
   the consumer moves on — ingest failure degrades, never stops,
   serving.
4. **commit** — build the successor :class:`KBVersion` (store, result,
   fence ∪ {id}, offset+1) and install it with the single-rebind
   commit (``stream:commit`` fires before, ``stream:post-commit``
   after).  A crash before the rebind leaves reads fully pre-delta; a
   crash after it, before the offset ack, is healed by the fence on
   redelivery.

Re-applying a delta after a crash between the engine's commit and the
serving commit is content-idempotent: retractions of absent triples
are no-ops, re-added claims deduplicate, and fused verdicts are a pure
function of store content — so the healed run is byte-identical to a
fault-free one (the chaos suite pins this).

Degradation is observable, never silent: the obs registry carries
``serving_version`` / ``serving_lag_events`` / ``serving_degraded``
gauges and ``stream_*`` counters, so an operator can tell "serving a
stale version because ingest is failing" from "caught up".
``serving_degraded=1`` over a flat ``serving_version`` is the former:
reads still answer, at most ``serving_lag_events`` + the poisoned
deltas behind the head; look at ``stream_events_poisoned_total`` and
``status().quarantined_held``, fix the cause, then
:meth:`KBServer.requeue_quarantined`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.quarantine import Quarantine
from repro.errors import BackpressureError, ServingError
from repro.faults import RetryPolicy
from repro.incremental.delta import ClaimDelta
from repro.serving.query import KBReader
from repro.serving.stream import EventLog, StreamEvent
from repro.serving.version import KBVersion, VersionedKB

__all__ = ["KBServer", "ServingStatus", "StepOutcome"]

#: Quarantine source name for poison deltas.
STREAM_SOURCE = "stream"


@dataclass(frozen=True, slots=True)
class StepOutcome:
    """What one consumed event did to the served state."""

    offset: int
    event_id: str
    action: str  # "applied" | "skipped" | "poisoned"
    version_id: int
    sequence: int
    attempts: int = 1
    error: str | None = None
    wall_seconds: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "offset": self.offset,
            "event_id": self.event_id,
            "action": self.action,
            "version_id": self.version_id,
            "sequence": self.sequence,
            "attempts": self.attempts,
            "error": self.error,
        }


@dataclass(frozen=True, slots=True)
class ServingStatus:
    """Operator-facing snapshot of the serving side."""

    version_id: int
    sequence: int
    committed_offset: int
    head_offset: int
    lag_events: int
    applied_events: int
    degraded: bool
    poisoned: int
    quarantined_held: int

    def to_json_dict(self) -> dict:
        return {
            "version_id": self.version_id,
            "sequence": self.sequence,
            "committed_offset": self.committed_offset,
            "head_offset": self.head_offset,
            "lag_events": self.lag_events,
            "applied_events": self.applied_events,
            "degraded": self.degraded,
            "poisoned": self.poisoned,
            "quarantined_held": self.quarantined_held,
        }


class KBServer:
    """Snapshot-isolated reads over a redeliverable delta stream.

    ``engine`` is a primed
    :class:`~repro.incremental.engine.IncrementalFusion`;  the server
    becomes its single driver (nothing else may call ``apply_delta``
    on it once serving starts).  ``retry`` defaults to three attempts
    with the standard deterministic backoff.
    """

    def __init__(
        self,
        engine,
        log: EventLog | None = None,
        *,
        group: str = "serving",
        retry: RetryPolicy | None = None,
        quarantine: Quarantine | None = None,
        metrics=None,
        fault_plan=None,
    ) -> None:
        if engine.sequence < 0:
            raise ServingError(
                "KBServer needs a primed incremental engine "
                "(call begin_incremental first)"
            )
        self.engine = engine
        self.metrics = metrics
        self.fault_plan = fault_plan
        self.group = group
        self.log = log if log is not None else EventLog(metrics=metrics)
        self.retry = retry if retry is not None else RetryPolicy()
        self.quarantine = (
            quarantine if quarantine is not None else Quarantine()
        )
        self.versions = VersionedKB(
            KBVersion(
                version_id=0,
                sequence=engine.sequence,
                store=engine.store,
                result=engine.result,
                offset=0,
                label="primed",
            )
        )
        self._degraded = False
        self._poisoned = 0
        # Lifetime count of events fenced (applied + poisoned).  The
        # fence inside the committed version ages with log compaction,
        # so it no longer doubles as this statistic.
        self._fenced_total = 0
        # Log base the fence was last aged against; re-age lazily only
        # when compaction has advanced it.
        self._fence_base = self.log.base
        self.log.register(group, offset=0)
        self._publish_gauges()

    # -- producer convenience ------------------------------------------
    def publish(self, delta: ClaimDelta) -> StreamEvent:
        """Append one delta to the log (subject to backpressure)."""
        return self.log.append(delta)

    # -- read side -----------------------------------------------------
    def reader(self) -> KBReader:
        """A reader pinned to the current committed version."""
        return KBReader(self.versions.pin(), metrics=self.metrics)

    def status(self) -> ServingStatus:
        """Current serving/ingest health (also refreshes the gauges)."""
        self._publish_gauges()
        version = self.versions.current
        return ServingStatus(
            version_id=version.version_id,
            sequence=version.sequence,
            committed_offset=self.log.committed(self.group),
            head_offset=self.log.head,
            lag_events=self.log.lag(self.group),
            applied_events=self._fenced_total,
            degraded=self._degraded,
            poisoned=self._poisoned,
            quarantined_held=len(
                self.quarantine.held.get(STREAM_SOURCE, ())
            ),
        )

    # -- consume side --------------------------------------------------
    def step(self) -> StepOutcome | None:
        """Consume one event; None when the log is drained.

        Raises whatever crashes outside the retried apply loop (the
        chaos tests use this to kill the consumer at each stage); the
        served state is consistent at every such point.
        """
        event = self.log.next_event(self.group)
        if event is None:
            self._publish_gauges()
            return None
        started = time.perf_counter()
        injected = self._fault("stream:deliver", event.offset)

        version = self.versions.current
        if event.event_id in version.applied:
            # Dedup fence hit: effects already committed (publisher
            # duplicate, or redelivery after a post-commit crash).
            self.log.commit_offset(self.group, event.offset + 1)
            self._count("stream_duplicates_skipped_total")
            self._publish_gauges()
            return StepOutcome(
                offset=event.offset,
                event_id=event.event_id,
                action="skipped",
                version_id=version.version_id,
                sequence=version.sequence,
                wall_seconds=time.perf_counter() - started + injected,
            )

        applied, attempts, failure, slow = self._apply_with_retry(event)
        injected += slow

        injected += self._fault("stream:commit", event.offset)
        fence = self._aged_fence(version) | {event.event_id}
        if applied:
            successor = KBVersion(
                version_id=version.version_id + 1,
                sequence=self.engine.sequence,
                store=self.engine.store,
                result=self.engine.result,
                offset=event.offset + 1,
                applied=fence,
                label=event.delta.label,
            )
            self._degraded = False
        else:
            # Poison delta: park it, fence it, keep serving the last
            # good version.  The KB content is unchanged; the version
            # still advances so the fence/offset are committed state.
            self.quarantine.divert(
                STREAM_SOURCE,
                event,
                reason=f"poison-delta: {failure}",
                retain=True,
            )
            successor = KBVersion(
                version_id=version.version_id + 1,
                sequence=version.sequence,
                store=version.store,
                result=version.result,
                offset=event.offset + 1,
                applied=fence,
                label=version.label,
            )
            self._degraded = True
            self._poisoned += 1
        self.versions.commit(successor)
        self._fenced_total += 1
        injected += self._fault("stream:post-commit", event.offset)
        self.log.commit_offset(self.group, event.offset + 1)

        wall = time.perf_counter() - started + injected
        action = "applied" if applied else "poisoned"
        self._count(f"stream_events_{action}_total")
        if attempts > 1:
            self._count("stream_retries_total", attempts - 1)
        if self.metrics is not None:
            self.metrics.histogram("stream_apply_seconds").observe(wall)
        self._publish_gauges()
        return StepOutcome(
            offset=event.offset,
            event_id=event.event_id,
            action=action,
            version_id=successor.version_id,
            sequence=successor.sequence,
            attempts=attempts,
            error=failure,
            wall_seconds=wall,
        )

    def drain(self, max_events: int | None = None) -> list[StepOutcome]:
        """Consume until the log is empty (or ``max_events`` reached)."""
        outcomes: list[StepOutcome] = []
        while max_events is None or len(outcomes) < max_events:
            outcome = self.step()
            if outcome is None:
                break
            outcomes.append(outcome)
        return outcomes

    def requeue_quarantined(self) -> list[StreamEvent]:
        """Re-enqueue every parked poison delta (exactly once).

        Drains the dead-letter hold — a second call republishes
        nothing — and publishes each delta under a derived event id
        (the original id is fenced, so reusing it would be skipped).

        A publish the log sheds (:class:`BackpressureError`) must not
        lose anything: the failed delta and every not-yet-published
        one behind it are re-parked in the hold, in order, before the
        error propagates (counted in ``stream_requeue_deferred_total``)
        — the next call picks them up where this one stopped.
        """
        events: list[StreamEvent] = []
        entries = self.quarantine.drain_entries(STREAM_SOURCE)
        for position, (reason, item) in enumerate(entries):
            if not isinstance(item, StreamEvent):
                self.quarantine.repark(STREAM_SOURCE, entries[position:])
                raise ServingError(
                    f"unexpected dead-letter item: {type(item).__name__}"
                )
            try:
                event = self.log.append(
                    item.delta, event_id=f"{item.event_id}#requeue"
                )
            except BackpressureError:
                deferred = entries[position:]
                self.quarantine.repark(STREAM_SOURCE, deferred)
                self._count("stream_requeue_deferred_total", len(deferred))
                raise
            events.append(event)
            self._count("stream_requeued_total")
        return events

    # -- internals -----------------------------------------------------
    def _aged_fence(self, version: KBVersion) -> frozenset[str]:
        """The committed fence minus ids the log can never deliver again.

        An id only earns its place in the fence while the log retains
        an occurrence of it (a publisher duplicate or crash redelivery
        still to come); once compaction drops the last occurrence the
        entry is dead weight, and without aging a long-lived server's
        fence grows one id per event forever.  Aging is lazy: steady
        state pays one integer compare, and the full filter runs only
        when compaction has advanced the log base since the last check.
        """
        base = self.log.base
        if base == self._fence_base:
            return version.applied
        self._fence_base = base
        return frozenset(
            event_id
            for event_id in version.applied
            if self.log.has_id(event_id)
        )

    def _apply_with_retry(
        self, event: StreamEvent
    ) -> tuple[bool, int, str | None, float]:
        """Apply one delta under the retry budget.

        Returns ``(applied, attempts, failure, injected_seconds)``;
        ``applied`` False means the budget is exhausted (poison).
        """
        budget = self.retry.max_attempts
        failure: str | None = None
        injected = 0.0
        for attempt in range(budget):
            pre_sequence = self.engine.sequence
            try:
                injected += self._fault(
                    "stream:apply", event.offset, attempt
                )
                self.engine.apply_delta(event.delta)
                return True, attempt + 1, None, injected
            except Exception as exc:  # noqa: BLE001 — consumer boundary
                if self.engine.sequence > pre_sequence:
                    # The engine committed before the crash surfaced
                    # (e.g. a stage:incremental-commit fault): the
                    # delta is applied; re-applying would double it.
                    return True, attempt + 1, None, injected
                failure = f"{type(exc).__name__}: {exc}"
                if attempt + 1 < budget:
                    self.retry.sleep(self.retry.backoff(attempt))
        return False, budget, failure, injected

    def _fault(self, scope: str, index: int, attempt: int = 0) -> float:
        if self.fault_plan is None:
            return 0.0
        return self.fault_plan.task_delay(scope, index, attempt)

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name).inc(amount)

    def _publish_gauges(self) -> None:
        if self.metrics is None:
            return
        version = self.versions.current
        gauge = self.metrics.gauge
        gauge("serving_version").set(version.version_id)
        gauge("serving_sequence").set(version.sequence)
        gauge("serving_lag_events").set(self.log.lag(self.group))
        gauge("serving_degraded").set(1.0 if self._degraded else 0.0)
        gauge("serving_fused_items").set(len(version.result.truths))
