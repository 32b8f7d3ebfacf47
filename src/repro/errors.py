"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch one base class at API
boundaries without swallowing unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class OntologyError(ReproError):
    """Raised for inconsistent ontology definitions or lookups."""


class HierarchyError(ReproError):
    """Raised for malformed value hierarchies (e.g. cycles)."""


class StoreError(ReproError):
    """Raised for invalid triple-store operations."""


class ParseError(ReproError):
    """Raised when HTML or a pattern expression cannot be parsed."""


class FusionError(ReproError):
    """Raised when a fusion method receives invalid claims or parameters."""


class PipelineError(ReproError):
    """Raised when the end-to-end pipeline is configured inconsistently."""


class GenerationError(ReproError):
    """Raised when a synthetic-data generator receives invalid parameters."""


class ServingError(ReproError):
    """Raised for invalid serving-layer operations.

    Covers version-handle misuse (committing a non-monotonic version)
    and stream-consumer misconfiguration; *not* raised for consumer
    task failures, which go through retry/poison handling instead.
    """


class BackpressureError(ReproError):
    """Raised when the event log sheds load instead of accepting a publish.

    Carries a machine-readable ``reason`` so producers can distinguish
    consumer lag from an absolute log bound.  Load shedding is always
    explicit — the log never silently drops an event.
    """

    def __init__(self, message: str, *, reason: str = "backpressure") -> None:
        super().__init__(message)
        self.reason = reason


class RetryExhaustedError(ReproError):
    """Raised when a task keeps failing after every allowed attempt.

    The MapReduce engine raises this once a map partition or reduce
    chunk has failed ``RetryPolicy.max_attempts`` times (the last
    underlying failure is chained as ``__cause__``).  With retries
    disabled a single failure exhausts the budget immediately.
    """


class StageTimeoutError(ReproError):
    """Raised when a pipeline stage or MapReduce task exceeds its deadline.

    Deadlines are checked against the task's *measured* duration (real
    wall time plus any injected slow-call seconds from a
    :class:`repro.faults.FaultPlan`), so tests can trigger timeouts
    deterministically without waiting.
    """


class DeltaError(ReproError):
    """Raised for invalid incremental-update deltas or delta state.

    Covers malformed :class:`repro.incremental.ClaimDelta` payloads,
    applying a delta before the incremental engine was primed, and a
    delta that would retract every remaining claim (an empty claim set
    cannot be fused, so the engine refuses to commit it).
    """


class QuarantineOverflowError(ReproError):
    """Raised when the malformed-record quarantine exceeds its capacity.

    A bounded quarantine distinguishes "a few bad records" (divert and
    continue) from "the input is systematically broken" (fail loudly
    rather than silently discarding most of a source).
    """
