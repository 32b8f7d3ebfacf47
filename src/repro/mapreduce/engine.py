"""A local, in-process MapReduce engine.

The paper scales knowledge fusion "by using a MapReduce based
framework" (after Dong et al. [13]) and plans a distributed inference
architecture "inherent in the MapReduce architectures" (Sec. 3.1).
This engine reproduces the programming model on one machine: mappers
emit key/value pairs, an optional combiner pre-aggregates per
partition, a hash partitioner shuffles, and reducers fold each key's
values.  A job's output is a list the next job can take as input; the
iterative fusion algorithms loop over their jobs themselves (two per
EM round, see :func:`repro.mapreduce.jobs.mr_accu`).

Every task runs in the calling process.  What is reproduced is the
model and the shuffle semantics, not a cluster: worker processes
measured 0.08–0.54× of this loop at every size tried on this repo's
hosts, so the engine starts none.  The tasks stay distributable —
:func:`_map_partition` and :func:`_reduce_chunk` are module-level
functions over picklable job functions, partition results are merged
in partition order and reducer input preserves emission order, so the
output does not depend on where or in which order tasks ran (a test
runs them on a pool of its own and requires the same bytes).

Fault tolerance: there is one dispatch path.  Every map partition and
every reduce chunk is an individually guarded task — attempts are
counted, durations measured — run under the job's
:class:`~repro.faults.RetryPolicy`, or under a one-attempt policy
when none is given.  A policy brings deterministic exponential backoff
(injectable ``sleep``, so tests never wait), per-task
deadlines checked against measured duration, and optional re-splitting
of a poison partition down to single records to isolate (and
drop-count) the offending one.  A task that fails every allowed
attempt — the first one, without a policy — raises
:class:`~repro.errors.RetryExhaustedError` chained from the task's own
exception; retries of a deterministic task cannot change its result,
so output stays byte-identical to an unfaulted run whenever the job
completes.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any, Generic, Hashable, TypeVar

from repro.errors import ReproError, RetryExhaustedError, StageTimeoutError
from repro.faults import FaultPlan, RetryPolicy

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

Mapper = Callable[[Any], Iterable[tuple[K, V]]]
Reducer = Callable[[K, list[V]], Iterable[Any]]
Combiner = Callable[[K, list[V]], Iterable[V]]

# Reduce key-groups are batched into this many chunks, each one guarded
# task.  A constant, so attempt counts and the key-groups a fault plan's
# ``("reduce", index)`` addresses are the same on every host.
REDUCE_CHUNKS = 4


@dataclass(slots=True)
class JobStats:
    """Counters of one job execution.

    ``attempts`` counts every task attempt, so a fault-free job reports
    one per map partition and reduce chunk; the other three stay zero
    until something fails.
    """

    input_records: int = 0
    map_output_records: int = 0
    combine_output_records: int = 0
    reduce_groups: int = 0
    output_records: int = 0
    attempts: int = 0
    retries: int = 0
    timed_out_tasks: int = 0
    poisoned_records: int = 0


def _map_partition(
    mapper: Mapper,
    combiner: Combiner | None,
    partition: list[Any],
) -> tuple[list[tuple[Any, list[Any]]], int, int, int]:
    """Map (+ optionally combine) one partition.

    Returns the emitted groups in first-emission order plus the
    partition's counter deltas.
    """
    emitted: dict[Any, list[Any]] = {}
    input_records = 0
    map_output = 0
    for record in partition:
        input_records += 1
        for key, value in mapper(record):
            emitted.setdefault(key, []).append(value)
            map_output += 1
    combine_output = 0
    if combiner is not None:
        combined: dict[Any, list[Any]] = {}
        for key, values in emitted.items():
            combined[key] = list(combiner(key, values))
            combine_output += len(combined[key])
        emitted = combined
    return list(emitted.items()), input_records, map_output, combine_output


def _reduce_chunk(
    reducer: Reducer, groups: list[tuple[Any, list[Any]]]
) -> list[list[Any]]:
    """Reduce a chunk of key-groups; one output list per group."""
    return [list(reducer(key, values)) for key, values in groups]


class MapReduceJob(Generic[K, V]):
    """One map → (combine) → shuffle → reduce job.

    Parameters
    ----------
    mapper:
        ``record -> iterable of (key, value)``.
    reducer:
        ``(key, [values]) -> iterable of output records``.
    combiner:
        Optional ``(key, [values]) -> iterable of values`` run per
        partition before the shuffle (classic associative
        pre-aggregation).
    partitions:
        Number of map partitions; affects only grouping of combiner
        input and the granularity of a retried map task, never
        results.
    retry:
        Optional :class:`~repro.faults.RetryPolicy`: per-task retries with
        deterministic backoff, deadline checks and poison isolation.
        ``None`` means a budget of one attempt — "retries disabled".
        Either way a task failure surfaces as
        :class:`~repro.errors.RetryExhaustedError` (chained from the
        task's exception) once the attempt budget is spent.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` hooked into the map
        and reduce task wrappers (scopes ``"map"``/``"reduce"``,
        indexed by partition/chunk) for deterministic chaos testing.
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
        combiner: Combiner | None = None,
        partitions: int = 4,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        metrics=None,
    ) -> None:
        if partitions < 1:
            raise ReproError("partitions must be >= 1")
        self.mapper = mapper
        self.reducer = reducer
        self.combiner = combiner
        self.partitions = partitions
        self.retry = retry
        self.fault_plan = fault_plan
        self.metrics = metrics
        self.stats = JobStats()

    # ------------------------------------------------------------------
    def run(self, records: Iterable[Any]) -> list[Any]:
        """Execute the job and return the collected reducer output."""
        self.stats = JobStats()
        try:
            return self._execute(self._split(records))
        finally:
            self._publish_stats()

    def _publish_stats(self) -> None:
        """Fold this run's ``JobStats`` into the metrics registry.

        Runs even when the job raised, so a failed run's attempt and
        poison counters are still visible.
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
            "mapreduce_combine_output_records_total"
        ).inc(stats.combine_output_records)
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
        metrics.counter(
            "mapreduce_poisoned_records_total"
        ).inc(stats.poisoned_records)

    def _execute(self, partitions: list[list[Any]]) -> list[Any]:
        # Map (+ optional combine) per partition; partition results are
        # merged in partition order.
        partition_results = self._run_guarded(
            _GuardedTask(
                functools.partial(_map_partition, self.mapper, self.combiner),
                "map",
                self.fault_plan,
            ),
            partitions,
            scope="map",
            resplit=_merge_partition_results,
        )

        shuffled: dict[K, list[V]] = {}
        for result in partition_results:
            if result is None:
                continue  # fully-poisoned partition dropped by resplit
            groups, input_records, map_output, combine_output = result
            self.stats.input_records += input_records
            self.stats.map_output_records += map_output
            self.stats.combine_output_records += combine_output
            for key, values in groups:
                shuffled.setdefault(key, []).extend(values)

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
            resplit=_merge_chunk_outputs,
        )
        output: list[Any] = []
        for chunk_output in chunk_outputs:
            if chunk_output is None:
                continue
            for group_output in chunk_output:
                output.extend(group_output)
        self.stats.output_records = len(output)
        return output

    # ------------------------------------------------------------------
    # Dispatch: retries, deadlines and poison isolation.

    def _run_guarded(
        self,
        task: "_GuardedTask",
        payloads: list[list[Any]],
        *,
        scope: str,
        resplit: Callable[[list[Any]], Any] | None,
        allow_resplit: bool = True,
    ) -> list[Any]:
        """Run one payload per task with the effective retry policy.

        Returns results aligned with ``payloads``; a payload whose
        every record/group is poison yields ``None`` (dropped).  Tasks
        run in waves, so pending tasks share one attempt counter and
        one deterministic backoff schedule.
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
                for index, exc in failed:
                    if (
                        allow_resplit
                        and resplit is not None
                        and policy.resplit_poison
                        and len(payloads[index]) > 1
                    ):
                        results[index] = self._isolate_poison(
                            task, payloads[index], scope, resplit
                        )
                    else:
                        raise RetryExhaustedError(
                            f"{scope} task {index} failed after "
                            f"{attempt} attempt(s): {exc!r}"
                        ) from exc
                break
            self.stats.retries += len(failed)
            policy.sleep(policy.backoff(attempt - 1))
            pending = [index for index, _exc in failed]
        return results

    def _isolate_poison(
        self,
        task: "_GuardedTask",
        payload: list[Any],
        scope: str,
        resplit: Callable[[list[Any]], Any],
    ):
        """Re-split an exhausted payload into single-element tasks.

        Elements that still fail every attempt are dropped and counted
        in ``JobStats.poisoned_records``; survivors are merged back in
        their original order, so output order matches an unfaulted run
        minus the poison.  Returns None when nothing survived.
        """
        survivors: list[Any] = []
        for element in payload:
            try:
                sub_results = self._run_guarded(
                    task,
                    [[element]],
                    scope=f"{scope}.resplit",
                    resplit=None,
                    allow_resplit=False,
                )
                survivors.append(sub_results[0])
            except RetryExhaustedError:
                self.stats.poisoned_records += 1
        if not survivors:
            return None
        return resplit(survivors)

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

    def _split(self, records: Iterable[Any]) -> list[list[Any]]:
        partitions: list[list[Any]] = [[] for _ in range(self.partitions)]
        for index, record in enumerate(records):
            partitions[index % self.partitions].append(record)
        return partitions


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


def _merge_partition_results(survivors: list[Any]):
    """Merge single-record map results back into one partition result.

    Groups are concatenated per key in first-emission order (the same
    order ``_map_partition`` would have produced for the surviving
    records) and counters are summed.
    """
    merged: dict[Any, list[Any]] = {}
    input_records = map_output = combine_output = 0
    for groups, sub_inputs, sub_map, sub_combine in survivors:
        input_records += sub_inputs
        map_output += sub_map
        combine_output += sub_combine
        for key, values in groups:
            merged.setdefault(key, []).extend(values)
    return list(merged.items()), input_records, map_output, combine_output


def _merge_chunk_outputs(survivors: list[Any]):
    """Merge single-group reduce results back into one chunk output."""
    return [
        group_output
        for chunk_output in survivors
        for group_output in chunk_output
    ]


def _wc_mapper(doc: str) -> list[tuple[str, int]]:
    return [(word.lower(), 1) for word in doc.split()]


def _wc_reducer(word: str, counts: list[int]) -> list[tuple[str, int]]:
    return [(word, sum(counts))]


def _wc_combiner(_word: str, counts: list[int]) -> list[int]:
    return [sum(counts)]


def word_count(documents: Iterable[str]) -> dict[str, int]:
    """The canonical demo job; doubles as an engine self-test."""
    job: MapReduceJob[str, int] = MapReduceJob(
        mapper=_wc_mapper,
        reducer=_wc_reducer,
        combiner=_wc_combiner,
    )
    return dict(job.run(documents))
