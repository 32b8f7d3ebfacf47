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
wrapper and every repeated run.

:class:`RetryPolicy` is the other half: how many attempts a guarded
task gets, how long to wait between them and when an attempt counts as
timed out.  The MapReduce engine, the sharded fuse, the KB server and
the tenant manager all take one.

Scope naming convention used across the repo:

* ``"map"`` / ``"reduce"`` — MapReduce task wrappers
  (:mod:`repro.mapreduce.engine`), indexed by partition/chunk;
* ``"stage:<name>"`` — pipeline stages (``stage:dom-extraction``,
  ``stage:fusion``, ...), always index 0;
* ``"records:<source>"`` — extractor input streams
  (``records:querystream``, ``records:dom``, ``records:webtext``),
  indexed by record position;
* ``"storage:flush"`` / ``"storage:compaction"`` — segment-store
  durability points (:mod:`repro.rdf.segments`), indexed by write
  phase: 0 before the segment temp is written, 1 before the segment
  ``os.replace``, 2 before the manifest ``os.replace``, 3 after the
  manifest lands but before the in-memory commit;
* ``"stream:*"`` — serving-layer consumer stages
  (:mod:`repro.serving.server`), indexed by event offset:
  ``stream:deliver`` fires as an event is taken off the log (before
  any state changes), ``stream:apply`` inside the retried apply loop
  (attempt-aware, so ``attempts=N`` models a transient consumer
  fault), ``stream:commit`` after the delta applied but before the
  version rebind (a crash here leaves reads fully pre-delta), and
  ``stream:post-commit`` after the rebind but before the offset ack
  (a crash here exercises redelivery against the dedup fence).
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = [
    "CorruptedRecord",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "RetryPolicy",
]

CRASH = "crash"
SLOW = "slow"
CORRUPT = "corrupt"


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
        self.specs.append(FaultSpec(CRASH, scope, index, attempts))
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
        self.specs.append(FaultSpec(SLOW, scope, index, attempts, seconds))
        return self

    def corrupt(self, scope: str, *, index: int) -> "FaultPlan":
        """Schedule one input record to be replaced with seeded garbage."""
        self.specs.append(FaultSpec(CORRUPT, scope, index))
        return self

    # -- hooks ---------------------------------------------------------
    def task_delay(self, scope: str, index: int, attempt: int) -> float:
        """Crash/slow hook called by task wrappers before/around a task.

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
class RetryPolicy:
    """How a guarded task is retried.

    ``backoff(n)`` is a deterministic exponential:
    ``backoff_base * 2**n`` seconds before the (n+2)-th attempt;
    ``sleep`` is injectable so chaos tests wait in fake time.
    ``timeout`` bounds one task's measured duration (real wall time
    plus any injected slow-call seconds); a breach counts in
    ``JobStats.timed_out_tasks`` and is retried like a crash.
    With ``resplit_poison`` a MapReduce partition that fails every
    attempt is re-split into single-record tasks: records that still
    fail are dropped and counted in ``JobStats.poisoned_records``
    instead of sinking the job (reduce chunks re-split into single
    key-groups the same way).
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    timeout: float | None = None
    resplit_poison: bool = False
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
