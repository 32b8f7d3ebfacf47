"""Deterministic fault injection and the retry policy that answers it.

Production KB construction must survive crashed workers, slow tasks and
malformed records (Dong et al., *From Data Fusion to Knowledge Fusion*;
the KBC-architecture survey calls pipeline resilience a first-class
concern).  Testing those paths with real crashes and real clocks makes
chaos tests flaky; this module makes every failure mode a pure function
of ``(scope, index, attempt)`` so a failure schedule is exactly
reproducible:

* **crash** — raise :class:`InjectedFault` when a targeted task runs
  (optionally only for its first ``attempts`` attempts, which models a
  transient fault that a retry survives);
* **slow** — add seconds to the task's *reported* duration without
  sleeping, so deadline handling is testable in microseconds;
* **corrupt** — replace an input record with a
  :class:`CorruptedRecord` carrying seeded garbage, which record
  validation then diverts to the quarantine.

A :class:`FaultPlan` is a list of :class:`FaultSpec` targets plus a
seed (used to derive the corruption payloads).  Plans are picklable and
their hooks read-only, so one plan can ride along with every task
and every repeated run.

:class:`RetryPolicy` is the other half: how many attempts a guarded
task gets, how long to wait between them and when an attempt counts as
timed out.  The MapReduce engine (and so every fuse, a job with a task
per chunk of components), the KB server and the tenant manager all
take one.

Every scope ``src/`` fires or corrupts is listed once, in
:data:`SCOPES`, with what its index means; :func:`fire` and the plan
builders refuse any other name, and ``tests/chaos/test_fault_roster.py``
fails on an entry no chaos test injects.  :func:`fire` is the one fault
point and :meth:`RetryPolicy.call` the one attempt loop (fault point,
timing, deadline, backoff) that every guarded step runs through.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import ReproError, RetryExhaustedError, StageTimeoutError

__all__ = [
    "SCOPES",
    "AttemptRecord",
    "CorruptedRecord",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "RetryPolicy",
    "fire",
]

CRASH = "crash"
SLOW = "slow"
CORRUPT = "corrupt"

#: The roster: every fault scope ``src/`` fires or corrupts, and what
#: its index means.  A new scope is an edit here.  The pipeline's
#: ``stage:<name>`` entries are the names of ``repro.core.pipeline.STAGES``.
SCOPES: dict[str, str] = {
    "map": "the MapReduce job's one map task; always 0",
    "reduce": "a MapReduce reduce chunk, 0 .. REDUCE_CHUNKS - 1",
    "stage:kb-extraction": "a pipeline stage; always 0",
    "stage:query-stream": "a pipeline stage; always 0",
    "stage:dom-extraction": "a pipeline stage; always 0",
    "stage:webtext-extraction": "a pipeline stage; always 0",
    "stage:entity-resolution": "a pipeline stage; always 0",
    "stage:attribute-resolution": "a pipeline stage; always 0",
    "stage:confidence": "a pipeline stage; always 0",
    "stage:fusion": "a pipeline stage; always 0",
    "stage:evaluation": "a pipeline stage; always 0",
    "stage:augmentation": "a pipeline stage; always 0",
    "stage:incremental-journal":
        "IncrementalFusion.apply_delta before any staging; always 0",
    "stage:incremental-fusion":
        "apply_delta after journalling, before re-fusion; always 0",
    "stage:incremental-commit":
        "apply_delta after its commit (state is post-delta); always 0",
    "records:querystream": "a query-log record, by position",
    "records:dom": "a web page, by position across every site",
    "records:webtext": "a text document, by position",
    "storage:flush": "segment flush phase: 0 before the temp is "
        "written, 1 before the segment os.replace, 2 before the "
        "manifest os.replace, 3 before the in-memory commit",
    "storage:compaction": "segment compaction phase, numbered as flush",
    "stream:deliver":
        "event offset; as the event leaves the log, before any change",
    "stream:apply": "event offset; each attempt of the server's apply",
    "stream:commit": "event offset; after the apply, before the rebind",
    "stream:post-commit":
        "event offset; after the rebind, before the offset ack",
}


def _known(scope: str) -> str:
    if scope not in SCOPES:
        raise ReproError(f"unknown fault scope {scope!r}: not in SCOPES")
    return scope


def fire(
    plan: FaultPlan | None, scope: str, index: int = 0, attempt: int = 0
) -> float:
    """Fire the fault point ``(scope, index, attempt)`` of ``plan``.

    Returns the injected slow seconds (0.0 without a plan) or raises
    the scheduled :class:`InjectedFault`; a scope not in
    :data:`SCOPES` raises :class:`~repro.errors.ReproError` either way.
    """
    _known(scope)
    if plan is None:
        return 0.0
    return plan.task_delay(scope, index, attempt)


class InjectedFault(RuntimeError):
    """An artificial failure raised by a :class:`FaultPlan`.

    Deliberately *not* a :class:`~repro.errors.ReproError`: injected
    faults simulate infrastructure failures (a worker segfault, an OOM
    kill), which the library does not raise itself.
    """


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One scheduled fault.

    ``attempts`` bounds crash/slow faults to the first N attempts of
    the targeted task (``attempts <= 0`` means every attempt — a
    permanent fault); corruption is attempt-independent.  ``index`` of
    ``None`` matches every task in the scope.
    """

    kind: str
    scope: str
    index: int | None = 0
    attempts: int = 1
    seconds: float = 0.0

    def matches(self, scope: str, index: int, attempt: int) -> bool:
        return (
            self.scope == scope
            and (self.index is None or self.index == index)
            and (self.attempts <= 0 or attempt < self.attempts)
        )


@dataclass(frozen=True, slots=True)
class CorruptedRecord:
    """What a corrupt-record fault turns an input record into.

    Validators reject it (it is not a page/document/query record), so
    the quarantine diverts it; ``original_repr`` keeps a truncated
    picture of what was destroyed for the quarantine's sampled
    examples.
    """

    scope: str
    index: int
    garbage: str
    original_repr: str


@dataclass(slots=True)
class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    Build plans fluently::

        plan = (
            FaultPlan(seed=7)
            .crash("map", index=0)                  # transient: attempt 0 only
            .slow("stage:dom-extraction", seconds=90.0)
            .corrupt("records:querystream", index=12)
        )

    The hooks (:meth:`task_delay`, :meth:`corrupt_record`) never mutate
    the plan, so the same plan object can be shared across jobs, task
    wrappers and repeated runs.
    """

    seed: int = 0
    specs: list[FaultSpec] = field(default_factory=list)

    # -- builders ------------------------------------------------------
    def crash(
        self, scope: str, *, index: int | None = 0, attempts: int = 1
    ) -> "FaultPlan":
        """Schedule an :class:`InjectedFault` for a task's first attempts."""
        self.specs.append(FaultSpec(CRASH, _known(scope), index, attempts))
        return self

    def slow(
        self,
        scope: str,
        *,
        seconds: float,
        index: int | None = 0,
        attempts: int = 1,
    ) -> "FaultPlan":
        """Schedule extra *reported* seconds for a task (no real sleep)."""
        self.specs.append(
            FaultSpec(SLOW, _known(scope), index, attempts, seconds)
        )
        return self

    def corrupt(self, scope: str, *, index: int) -> "FaultPlan":
        """Schedule one input record to be replaced with seeded garbage."""
        self.specs.append(FaultSpec(CORRUPT, _known(scope), index))
        return self

    # -- hooks ---------------------------------------------------------
    def task_delay(self, scope: str, index: int, attempt: int) -> float:
        """Crash/slow hook; ``src/`` reaches it only through :func:`fire`.

        Raises :class:`InjectedFault` if a crash spec matches; otherwise
        returns the summed injected seconds of matching slow specs.
        """
        extra = 0.0
        for spec in self.specs:
            if not spec.matches(scope, index, attempt):
                continue
            if spec.kind == CRASH:
                raise InjectedFault(
                    f"injected crash: {scope} task {index} "
                    f"(attempt {attempt})"
                )
            if spec.kind == SLOW:
                extra += spec.seconds
        return extra

    def corrupt_record(self, scope: str, index: int, record: object):
        """Corruption hook: return the record, or its corrupted stand-in."""
        for spec in self.specs:
            if spec.kind == CORRUPT and spec.scope == scope and (
                spec.index is None or spec.index == index
            ):
                return CorruptedRecord(
                    scope=scope,
                    index=index,
                    garbage=self._garbage(scope, index),
                    original_repr=repr(record)[:120],
                )
        return record

    def _garbage(self, scope: str, index: int) -> str:
        digest = hashlib.sha256(
            f"{self.seed}:{scope}:{index}".encode()
        ).hexdigest()
        return f"\x00corrupt[{digest[:16]}]"


@dataclass(slots=True)
class AttemptRecord:
    """What one :meth:`RetryPolicy.call` spent: every attempt, the ones
    that overran the deadline, and the injected slow seconds."""

    attempts: int = 0
    timed_out: int = 0
    injected_seconds: float = 0.0


@dataclass(slots=True)
class RetryPolicy:
    """How a guarded step is retried.

    ``backoff(n)`` is a deterministic exponential:
    ``backoff_base * 2**n`` seconds before the (n+2)-th attempt;
    ``sleep`` is injectable so chaos tests wait in fake time.
    ``timeout`` bounds one attempt's measured duration (real wall time
    plus any injected slow-call seconds); a breach is retried like a
    crash.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    timeout: float | None = None
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ReproError("backoff_base must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ReproError("timeout must be positive")

    def backoff(self, retry_number: int) -> float:
        """Seconds to wait before retry ``retry_number`` (0-based)."""
        return self.backoff_base * (2.0 ** retry_number)

    def call(
        self,
        scope: str,
        index: int,
        body: Callable[[], object],
        *,
        plan: FaultPlan | None = None,
    ) -> tuple[object, AttemptRecord]:
        """Run ``body()`` as the guarded step ``(scope, index)``.

        Each attempt fires the fault point, times the body (injected
        slow seconds included) and fails with
        :class:`~repro.errors.StageTimeoutError` past ``timeout``; a
        failed attempt sleeps ``backoff(n)`` before the next.  Returns
        the body's result and the :class:`AttemptRecord`.  After the
        last failed attempt raises
        :class:`~repro.errors.RetryExhaustedError` chained from that
        failure, with the record as its ``record``.  A body that raises
        ``RetryExhaustedError`` has used up a guarded step of its own,
        so that attempt is the last: nested guards add their attempts,
        they never multiply them.
        """
        _known(scope)
        record = AttemptRecord()
        for attempt in range(self.max_attempts):
            if attempt:
                self.sleep(self.backoff(attempt - 1))
            record.attempts += 1
            try:
                injected = fire(plan, scope, index, attempt)
                record.injected_seconds += injected
                started = time.perf_counter()
                result = body()
                seconds = time.perf_counter() - started + injected
                if self.timeout is not None and seconds > self.timeout:
                    record.timed_out += 1
                    raise StageTimeoutError(
                        f"{scope} task {index} ran {seconds:.3f}s, "
                        f"deadline {self.timeout}s"
                    )
                return result, record
            except Exception as exc:  # noqa: BLE001 — the step's boundary
                failure = exc
                if isinstance(exc, RetryExhaustedError):
                    break
        exhausted = RetryExhaustedError(
            f"{scope} task {index} failed after {record.attempts} "
            f"attempt(s): {failure!r}"
        )
        exhausted.record = record
        raise exhausted from failure
