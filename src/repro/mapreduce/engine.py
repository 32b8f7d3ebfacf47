"""A local, in-process MapReduce engine.

The paper scales knowledge fusion "by using a MapReduce based
framework" (after Dong et al. [13]) and plans a distributed inference
architecture "inherent in the MapReduce architectures" (Sec. 3.1).
This engine reproduces the programming model on one machine: a mapper
emits key/value pairs, the shuffle groups them by key, and reducers
fold each key's values in sorted key order.  Its one job in ``src/``
is the fuse's dispatch (:func:`repro.fusion.sharding.fuse_sharded`): a
record and a reduce group per connected component of the claim graph,
run by every ``KnowledgeFusion.fuse`` and by every prime or delta of
the incremental engine that re-fuses a component.

Every task runs in the calling process.  What is reproduced is the
model and the shuffle semantics, not a cluster: worker processes
measured 0.08–0.54× of this loop at every size tried on this repo's
hosts, so the engine starts none.  The tasks stay distributable —
:func:`_map_records` and :func:`_reduce_chunk` are module-level
functions over picklable job functions and reducer input preserves
emission order, so the output does not depend on where or in which
order tasks ran (a test runs them on a pool of its own and requires
the same bytes).

Fault tolerance: the map task and then each reduce chunk, in order,
is one guarded step, :meth:`repro.faults.RetryPolicy.call` under the
job's policy (or a one-attempt policy when none is given): its own
attempts, deterministic backoff and deadline.  A task that fails every allowed
attempt raises :class:`~repro.errors.RetryExhaustedError` chained
from the task's own exception, so a job either reduces every key or
returns nothing; retries of a deterministic task cannot change its
result, so output stays byte-identical to an unfaulted run whenever
the job completes.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any, Generic, Hashable, TypeVar

from repro.errors import RetryExhaustedError
from repro.faults import AttemptRecord, FaultPlan, RetryPolicy

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
        Optional :class:`repro.faults.FaultPlan` fired by the map and
        reduce tasks (scope ``"map"``, index 0, and scope ``"reduce"``,
        indexed by chunk) for deterministic chaos testing.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`.  When set,
        ``run()`` publishes every :class:`JobStats` counter as a
        ``mapreduce_*`` metric, even when the job raises.
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
        policy = self.retry or RetryPolicy(max_attempts=1)
        # The map task is one guarded task over every record; its
        # key-groups are the shuffle.
        self.stats.input_records = len(records)
        shuffled, map_output = self._guarded(
            policy, "map", 0,
            functools.partial(_map_records, self.mapper, records),
        )
        self.stats.map_output_records = map_output

        # Reduce in deterministic key order, in chunks: a chunk is the
        # unit a retry repeats.
        keys = sorted(shuffled, key=repr)
        self.stats.reduce_groups = len(keys)
        output = []
        for index, groups in enumerate(self._chunk_groups(keys, shuffled)):
            chunk_output = self._guarded(
                policy, "reduce", index,
                functools.partial(_reduce_chunk, self.reducer, groups),
            )
            for group_output in chunk_output:
                output.extend(group_output)
        self.stats.output_records = len(output)
        return output

    def _guarded(self, policy: RetryPolicy, scope: str, index: int, body):
        """One task under ``policy``; its attempts land in ``stats``
        whether it succeeds or exhausts its budget."""
        try:
            result, record = policy.call(
                scope, index, body, plan=self.fault_plan
            )
        except RetryExhaustedError as exhausted:
            self._count_attempts(exhausted.record)
            raise
        self._count_attempts(record)
        return result

    def _count_attempts(self, record: AttemptRecord) -> None:
        self.stats.attempts += record.attempts
        self.stats.retries += record.attempts - 1
        self.stats.timed_out_tasks += record.timed_out

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
