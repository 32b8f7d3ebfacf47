"""A local, in-process MapReduce engine.

The paper scales knowledge fusion "by using a MapReduce based
framework" (after Dong et al. [13]) and plans a distributed inference
architecture "inherent in the MapReduce architectures" (Sec. 3.1).
This engine reproduces the programming model on one machine: a mapper
emits key/value pairs, the shuffle groups them by key, and reducers
fold each key's values in sorted key order.  Its one job in ``src/``
is the fuse (:func:`repro.fusion.sharding.fuse_sharded`): a record per
connected component of the claim graph, a reduce group per component.

Every task runs in the calling process.  What is reproduced is the
model and the shuffle semantics, not a cluster: worker processes
measured 0.08–0.54× of this loop at every size tried on this repo's
hosts, so the engine starts none.  The tasks stay distributable —
:func:`_map_records` and :func:`_reduce_chunk` are module-level
functions over picklable job functions and reducer input preserves
emission order, so the output does not depend on where or in which
order tasks ran (a test runs them on a pool of its own and requires
the same bytes).

Fault tolerance: there is one dispatch path.  The map task and every
reduce chunk is an individually guarded task — attempts are counted,
durations measured — run under the job's
:class:`~repro.faults.RetryPolicy`, or under a one-attempt policy
when none is given.  A policy brings deterministic exponential backoff
(injectable ``sleep``, so tests never wait) and per-task deadlines
checked against measured duration.  A task that fails every allowed
attempt — the first one, without a policy — raises
:class:`~repro.errors.RetryExhaustedError` chained from the task's own
exception, so a job either reduces every key or returns nothing;
retries of a deterministic task cannot change its result, so output
stays byte-identical to an unfaulted run whenever the job completes.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any, Generic, Hashable, TypeVar

from repro.errors import RetryExhaustedError, StageTimeoutError
from repro.faults import FaultPlan, RetryPolicy

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

Mapper = Callable[[Any], Iterable[tuple[K, V]]]
Reducer = Callable[[K, list[V]], Iterable[Any]]

# Reduce key-groups are batched into this many chunks, each one guarded
# task.  A constant, so attempt counts and the key-groups a fault plan's
# ``("reduce", index)`` addresses are the same on every host.
REDUCE_CHUNKS = 4


@dataclass(slots=True)
class JobStats:
    """Counters of one job execution.

    ``attempts`` counts every task attempt, so a fault-free job reports
    one for the map task and one per reduce chunk; ``retries`` and
    ``timed_out_tasks`` stay zero until something fails.
    """

    input_records: int = 0
    map_output_records: int = 0
    reduce_groups: int = 0
    output_records: int = 0
    attempts: int = 0
    retries: int = 0
    timed_out_tasks: int = 0


def _map_records(
    mapper: Mapper, records: list[Any]
) -> tuple[dict[Any, list[Any]], int]:
    """Map every record; returns the key-groups in first-emission order
    and the number of emitted pairs."""
    emitted: dict[Any, list[Any]] = {}
    map_output = 0
    for record in records:
        for key, value in mapper(record):
            emitted.setdefault(key, []).append(value)
            map_output += 1
    return emitted, map_output


def _reduce_chunk(
    reducer: Reducer, groups: list[tuple[Any, list[Any]]]
) -> list[list[Any]]:
    """Reduce a chunk of key-groups; one output list per group."""
    return [list(reducer(key, values)) for key, values in groups]


class MapReduceJob(Generic[K, V]):
    """One map → shuffle → reduce job.

    Parameters
    ----------
    mapper:
        ``record -> iterable of (key, value)``.
    reducer:
        ``(key, [values]) -> iterable of output records``.
    retry:
        Optional :class:`~repro.faults.RetryPolicy`: per-task retries with
        deterministic backoff and deadline checks.  ``None`` means a
        budget of one attempt — "retries disabled".  Either way a task
        failure surfaces as :class:`~repro.errors.RetryExhaustedError`
        (chained from the task's exception) once the attempt budget is
        spent.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` hooked into the map
        and reduce task wrappers (scope ``"map"``, index 0, and scope
        ``"reduce"``, indexed by chunk) for deterministic chaos testing.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`.  When set,
        ``run()`` publishes every :class:`JobStats` counter as a
        ``mapreduce_*`` metric (even when the job raises), counts
        dispatch waves per scope (``mapreduce_waves_total``) and times
        them (``mapreduce_wave_seconds``).
    """

    def __init__(
        self,
        mapper: Mapper,
        reducer: Reducer,
        *,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        metrics=None,
    ) -> None:
        self.mapper = mapper
        self.reducer = reducer
        self.retry = retry
        self.fault_plan = fault_plan
        self.metrics = metrics
        self.stats = JobStats()

    # ------------------------------------------------------------------
    def run(self, records: Iterable[Any]) -> list[Any]:
        """Execute the job and return the collected reducer output."""
        self.stats = JobStats()
        try:
            return self._execute(list(records))
        finally:
            self._publish_stats()

    def _publish_stats(self) -> None:
        """Fold this run's ``JobStats`` into the metrics registry.

        Runs even when the job raised, so a failed run's attempt and
        retry counters are still visible.
        """
        if self.metrics is None:
            return
        stats = self.stats
        metrics = self.metrics
        metrics.counter("mapreduce_jobs_total").inc()
        metrics.counter(
            "mapreduce_input_records_total"
        ).inc(stats.input_records)
        metrics.counter(
            "mapreduce_map_output_records_total"
        ).inc(stats.map_output_records)
        metrics.counter(
            "mapreduce_reduce_groups_total"
        ).inc(stats.reduce_groups)
        metrics.counter(
            "mapreduce_output_records_total"
        ).inc(stats.output_records)
        metrics.counter("mapreduce_attempts_total").inc(stats.attempts)
        metrics.counter("mapreduce_retries_total").inc(stats.retries)
        metrics.counter(
            "mapreduce_timed_out_tasks_total"
        ).inc(stats.timed_out_tasks)

    def _execute(self, records: list[Any]) -> list[Any]:
        # The map task is one guarded task over every record; its
        # key-groups are the shuffle.
        self.stats.input_records = len(records)
        ((shuffled, map_output),) = self._run_guarded(
            _GuardedTask(
                functools.partial(_map_records, self.mapper),
                "map",
                self.fault_plan,
            ),
            [records],
            scope="map",
        )
        self.stats.map_output_records = map_output

        # Reduce in deterministic key order, in chunks: a chunk is the
        # unit a retry repeats.
        keys = sorted(shuffled, key=repr)
        self.stats.reduce_groups = len(keys)
        chunk_outputs = self._run_guarded(
            _GuardedTask(
                functools.partial(_reduce_chunk, self.reducer),
                "reduce",
                self.fault_plan,
            ),
            self._chunk_groups(keys, shuffled),
            scope="reduce",
        )
        output = [
            record
            for chunk_output in chunk_outputs
            for group_output in chunk_output
            for record in group_output
        ]
        self.stats.output_records = len(output)
        return output

    # ------------------------------------------------------------------
    # Dispatch: retries and deadlines.

    def _run_guarded(
        self,
        task: "_GuardedTask",
        payloads: list[Any],
        *,
        scope: str,
    ) -> list[Any]:
        """Run one payload per task with the effective retry policy.

        Returns results aligned with ``payloads``, or raises
        :class:`~repro.errors.RetryExhaustedError` for the first task
        that failed its last allowed attempt.  Tasks run in waves, so
        pending tasks share one attempt counter and one deterministic
        backoff schedule.
        """
        policy = self.retry or _SINGLE_ATTEMPT
        results: list[Any] = [None] * len(payloads)
        pending = list(range(len(payloads)))
        attempt = 0
        while pending:
            wave_started = time.perf_counter()
            if self.metrics is not None:
                self.metrics.counter(
                    "mapreduce_waves_total", scope=scope
                ).inc()
            failed: list[tuple[int, Exception]] = []
            for index in pending:
                self.stats.attempts += 1
                try:
                    result, seconds = task(index, attempt, payloads[index])
                    if (
                        policy.timeout is not None
                        and seconds > policy.timeout
                    ):
                        self.stats.timed_out_tasks += 1
                        raise StageTimeoutError(
                            f"{scope} task {index} ran {seconds:.3f}s, "
                            f"deadline {policy.timeout}s"
                        )
                    results[index] = result
                except Exception as exc:
                    failed.append((index, exc))
            if self.metrics is not None:
                self.metrics.histogram(
                    "mapreduce_wave_seconds", scope=scope
                ).observe(time.perf_counter() - wave_started)
            if not failed:
                break
            attempt += 1
            if attempt >= policy.max_attempts:
                index, exc = failed[0]
                raise RetryExhaustedError(
                    f"{scope} task {index} failed after "
                    f"{attempt} attempt(s): {exc!r}"
                ) from exc
            self.stats.retries += len(failed)
            policy.sleep(policy.backoff(attempt - 1))
            pending = [index for index, _exc in failed]
        return results

    # ------------------------------------------------------------------
    def _chunk_groups(
        self, keys: list[K], shuffled: dict[K, list[V]]
    ) -> list[list[tuple[K, list[V]]]]:
        """Key-groups batched into at most :data:`REDUCE_CHUNKS` chunks."""
        chunk_size = max(1, -(-len(keys) // REDUCE_CHUNKS))
        return [
            [(key, shuffled[key]) for key in keys[start : start + chunk_size]]
            for start in range(0, len(keys), chunk_size)
        ]


class _GuardedTask:
    """Task wrapper: fault hooks plus duration measurement.

    Called with ``index, attempt, payload`` so the fault plan can
    address tasks deterministically; returns ``(result, seconds)``
    where seconds include any injected slow-call time.  Picklable
    (the plan rides along read-only).
    """

    __slots__ = ("task", "scope", "plan")

    def __init__(
        self, task, scope: str, plan: FaultPlan | None
    ) -> None:
        self.task = task
        self.scope = scope
        self.plan = plan

    def __call__(self, index: int, attempt: int, payload: Any):
        extra = 0.0
        if self.plan is not None:
            extra = self.plan.task_delay(self.scope, index, attempt)
        started = time.perf_counter()
        result = self.task(payload)
        return result, time.perf_counter() - started + extra


# "Retries disabled": the one-attempt budget of a job without a retry
# policy.
_SINGLE_ATTEMPT = RetryPolicy(max_attempts=1, backoff_base=0.0)
