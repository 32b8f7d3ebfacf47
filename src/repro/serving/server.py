"""The crash-safe KB server: stream consumption + versioned serving.

:class:`KBServer` is the single consumer of an :class:`EventLog` and
the single writer of a :class:`VersionedKB`.  One :meth:`step`
processes one event end to end:

1. **deliver** — read the event at the log's committed offset
   (``stream:deliver`` fault point).  Reading does not advance
   anything, so a crash here costs nothing but a redelivery.
2. **fence check** — if the event id is already in the committed
   version's dedup fence, the delta's effects are in the served state:
   skip the apply entirely and just acknowledge the offset.  This is
   what makes at-least-once delivery *exactly-once application*: both
   publisher retries (same id, two offsets) and post-commit crash
   redelivery (same offset re-read) land here.  The fence is a
   window: the ids of the last ``2 × capacity`` fenced events, oldest
   first.  That covers every event the log can still deliver twice —
   the log retains its committed prefix (kept shorter than the
   backlog) and the backlog (at most ``capacity``) — so a duplicate
   the log still holds beside its original is skipped whatever
   compaction did; a duplicate published more than ``2 × capacity``
   fenced events after its original is a new event.
3. **apply** — journal the delta through the incremental engine as
   one guarded step, :meth:`~repro.faults.RetryPolicy.call`
   (``stream:apply``, attempt-aware), with no deadline: an apply that
   finished has committed, and running it again would apply it twice.
   A failure whose engine sequence advanced anyway crashed *after* the
   engine's internal commit point — the delta is in; treat it as
   applied, never re-apply.  An engine already ahead of the served
   version at delivery holds the delivered delta (a crash at
   ``stream:commit`` kept its version from committing), so the step
   skips the apply and commits the engine's state.  A failure
   that exhausts the budget is a **poison delta**: it is parked as
   ``(reason, event)`` in the server's own dead-letter list
   :attr:`KBServer.parked` (in diversion order, unbounded, re-enqueued
   exactly once by :meth:`requeue_quarantined`), fenced so redelivery
   skips it, and the consumer moves on — ingest failure degrades,
   never stops, serving.
4. **commit** — build the successor :class:`KBVersion` (store, result
   and read index, the fence window plus the id, offset+1) and install
   it with the single-rebind
   commit (``stream:commit`` fires before, ``stream:post-commit``
   after).  A crash before the rebind leaves reads fully pre-delta; a
   crash after it, before the offset ack, is healed by the fence on
   redelivery.

A crash between the engine's commit and the serving commit therefore
costs one redelivery that commits what the engine already holds: the
healed run is byte-identical to a fault-free one (the chaos suite pins
this), and no fault on the redelivered apply can park a delta whose
effects the engine has, which the next applied delta would serve.

Degradation is observable, never silent: the obs registry carries
``serving_version`` / ``serving_lag_events`` / ``serving_degraded``
gauges and ``stream_*`` counters, so an operator can tell "serving a
stale version because ingest is failing" from "caught up".
``serving_degraded=1`` over a flat ``serving_version`` is the former:
reads still answer, at most ``serving_lag_events`` + the poisoned
deltas behind the head; look at ``stream_events_poisoned_total`` and
``status().quarantined_held``, read each parked delta's reason in
``server.parked``, fix the cause, then
:meth:`KBServer.requeue_quarantined`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from repro.errors import BackpressureError, RetryExhaustedError, ServingError
from repro.faults import AttemptRecord, RetryPolicy, fire
from repro.incremental.delta import ClaimDelta
from repro.serving.query import KBReader
from repro.serving.stream import EventLog, StreamEvent
from repro.serving.version import KBVersion, VersionedKB

__all__ = ["KBServer", "ServingStatus", "StepOutcome"]

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
        retry: RetryPolicy | None = None,
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
        self.log = log if log is not None else EventLog(metrics=metrics)
        self.retry = retry if retry is not None else RetryPolicy()
        # Poison deltas as (reason, event), in diversion order.
        self.parked: list[tuple[str, StreamEvent]] = []
        self.versions = VersionedKB(
            KBVersion(
                version_id=0,
                sequence=engine.sequence,
                store=engine.store,
                result=engine.result,
                offset=0,
                label="primed",
                read_index=engine.read_index,
            )
        )
        self._degraded = False
        self._poisoned = 0
        self._publish_gauges()

    # -- producer convenience ------------------------------------------
    def publish(self, delta: ClaimDelta) -> StreamEvent:
        """Append one delta to the log (subject to backpressure)."""
        return self.log.append(delta)

    # -- read side -----------------------------------------------------
    def reader(self) -> KBReader:
        """A reader pinned to the current committed version."""
        return KBReader(self.versions.current, metrics=self.metrics)

    def status(self) -> ServingStatus:
        """Current serving/ingest health (also refreshes the gauges)."""
        self._publish_gauges()
        version = self.versions.current
        return ServingStatus(
            version_id=version.version_id,
            sequence=version.sequence,
            committed_offset=self.log.committed,
            head_offset=self.log.head,
            lag_events=self.log.lag,
            # Every fenced event, applied or poisoned, committed one
            # version; the fence itself keeps only its window.
            applied_events=version.version_id - self._poisoned,
            degraded=self._degraded,
            poisoned=self._poisoned,
            quarantined_held=len(self.parked),
        )

    # -- consume side --------------------------------------------------
    def step(self) -> StepOutcome | None:
        """Consume one event; None when the log is drained.

        Raises whatever crashes outside the retried apply loop (the
        chaos tests use this to kill the consumer at each stage); the
        served state is consistent at every such point.
        """
        event = self.log.next_event()
        if event is None:
            self._publish_gauges()
            return None
        started = time.perf_counter()
        injected = fire(self.fault_plan, "stream:deliver", event.offset)

        version = self.versions.current
        if event.event_id in version.applied:
            # Dedup fence hit: effects already committed (publisher
            # duplicate, or redelivery after a post-commit crash).
            self.log.commit_offset(event.offset + 1)
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

        failure, record = None, AttemptRecord(attempts=1)
        # An engine ahead of the served version already holds this
        # delta: a crash at ``stream:commit`` kept its version from
        # committing.  It is in; applying or poisoning it again would
        # not undo that.
        if self.engine.sequence == version.sequence:
            # No deadline: an apply that finished has committed, and
            # running it again would apply the delta twice.
            retry = dataclasses.replace(self.retry, timeout=None)
            try:
                _, record = retry.call(
                    "stream:apply",
                    event.offset,
                    lambda: self._apply(event.delta),
                    plan=self.fault_plan,
                )
            except RetryExhaustedError as exhausted:
                record = exhausted.record
                cause = exhausted.__cause__
                failure = f"{type(cause).__name__}: {cause}"
        injected += record.injected_seconds

        injected += fire(self.fault_plan, "stream:commit", event.offset)
        # The fence window: every offset the log can still deliver lies
        # within 2 x capacity fenced events of the newest.
        fence = dict(version.applied)
        fence[event.event_id] = None
        if len(fence) > 2 * self.log.capacity:
            del fence[next(iter(fence))]
        if failure is None:
            successor = KBVersion(
                version_id=version.version_id + 1,
                sequence=self.engine.sequence,
                store=self.engine.store,
                result=self.engine.result,
                offset=event.offset + 1,
                applied=fence,
                label=event.delta.label,
                read_index=self.engine.read_index,
            )
            self._degraded = False
        else:
            # Poison delta: park it, fence it, keep serving the last
            # good version.  The KB content is unchanged; the version
            # still advances so the fence/offset are committed state.
            self.parked.append((f"poison-delta: {failure}", event))
            successor = KBVersion(
                version_id=version.version_id + 1,
                sequence=version.sequence,
                store=version.store,
                result=version.result,
                offset=event.offset + 1,
                applied=fence,
                label=version.label,
                read_index=version.read_index,
            )
            self._degraded = True
            self._poisoned += 1
        self.versions.commit(successor)
        injected += fire(self.fault_plan, "stream:post-commit", event.offset)
        self.log.commit_offset(event.offset + 1)

        wall = time.perf_counter() - started + injected
        action = "applied" if failure is None else "poisoned"
        self._count(f"stream_events_{action}_total")
        if record.attempts > 1:
            self._count("stream_retries_total", record.attempts - 1)
        if self.metrics is not None:
            self.metrics.histogram("stream_apply_seconds").observe(wall)
        self._publish_gauges()
        return StepOutcome(
            offset=event.offset,
            event_id=event.event_id,
            action=action,
            version_id=successor.version_id,
            sequence=successor.sequence,
            attempts=record.attempts,
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

        Empties :attr:`parked` — a second call republishes nothing —
        and publishes each delta under a derived event id (the original
        id is fenced, so reusing it would be skipped).

        A publish the log sheds (:class:`BackpressureError`) must not
        lose anything: the failed delta and every not-yet-published
        one behind it go back in front of :attr:`parked`, in order,
        before the error propagates (counted in
        ``stream_requeue_deferred_total``) — the next call picks them
        up where this one stopped.
        """
        events: list[StreamEvent] = []
        entries, self.parked = self.parked, []
        for position, (_reason, item) in enumerate(entries):
            try:
                event = self.log.append(
                    item.delta, event_id=f"{item.event_id}#requeue"
                )
            except BackpressureError:
                deferred = entries[position:]
                self.parked[:0] = deferred
                self._count("stream_requeue_deferred_total", len(deferred))
                raise
            events.append(event)
            self._count("stream_requeued_total")
        return events

    # -- internals -----------------------------------------------------
    def _apply(self, delta: ClaimDelta) -> None:
        """Journal ``delta`` through the engine.

        A crash that surfaces after the engine's own commit (e.g. a
        ``stage:incremental-commit`` fault) counts as applied:
        re-applying would double the delta.
        """
        before = self.engine.sequence
        try:
            self.engine.apply_delta(delta)
        except Exception:
            if self.engine.sequence == before:
                raise

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
        gauge("serving_lag_events").set(self.log.lag)
        gauge("serving_degraded").set(1.0 if self._degraded else 0.0)
        gauge("serving_fused_items").set(len(version.result.truths))
