"""Unit tests for the local MapReduce engine."""

import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.fusion import sharding
from repro.fusion.accu import Accu
from repro.mapreduce import engine
from repro.mapreduce.engine import MapReduceJob
from tests.unit.test_fusion_sharding import three_component_claims


class TestJobMechanics:
    @pytest.mark.parametrize("cpus", [1, 64])
    def test_stats_do_not_depend_on_the_host(self, monkeypatch, cpus):
        # Reduce chunks were once sized from os.cpu_count(): the same
        # job booked 8 attempts on a 1-CPU host and 54 on a 64-CPU one,
        # and a fault plan's ("reduce", index) named different groups.
        documents = [f"w{i} w{i % 7} w{i % 3}" for i in range(40)]

        def run():
            job = MapReduceJob(_word_mapper, _sum_reducer)
            return job.run(documents), job.stats

        output, stats = run()
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        patched_output, patched_stats = run()
        assert patched_output == output
        assert patched_stats == stats
        assert stats.attempts == 1 + 4  # the map task + reduce chunks

    def test_stats_populated(self):
        job = MapReduceJob(
            lambda doc: [(word, 1) for word in doc.split()],
            lambda word, counts: [(word, sum(counts))],
        )
        job.run(["a b", "a"])
        assert job.stats.input_records == 2
        assert job.stats.map_output_records == 3
        assert job.stats.reduce_groups == 2
        assert job.stats.output_records == 2

    def test_deterministic_output_order(self):
        job = MapReduceJob(
            lambda record: [(record, 1)],
            lambda key, values: [key],
        )
        assert job.run(["b", "a", "c"]) == ["a", "b", "c"]

    def test_mapper_emitting_nothing(self):
        job = MapReduceJob(lambda record: [], lambda key, values: [key])
        assert job.run(["x", "y"]) == []


class TestPipeline:
    def test_chained_jobs(self):
        # Job 1: word counts; job 2: bucket counts by parity.  A job's
        # output list is the next job's input.
        count_job = MapReduceJob(
            lambda doc: [(word, 1) for word in doc.split()],
            lambda word, counts: [(word, sum(counts))],
        )
        parity_job = MapReduceJob(
            lambda pair: [(pair[1] % 2, 1)],
            lambda parity, ones: [(parity, sum(ones))],
        )
        result = dict(parity_job.run(count_job.run(["a a b", "c"])))
        assert result == {0: 1, 1: 2}


def _word_mapper(doc):
    return [(word, 1) for word in doc.split()]


def _sum_reducer(word, counts):
    return [(word, sum(counts))]


class TestJobMetrics:
    def test_run_publishes_jobstats_counters(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        job = MapReduceJob(
            _word_mapper, _sum_reducer, metrics=registry
        )
        job.run(["a b a", "b c"])
        counters = registry.snapshot().counters
        assert counters["mapreduce_jobs_total"] == 1
        assert counters["mapreduce_input_records_total"] == 2
        assert counters["mapreduce_map_output_records_total"] == 5
        assert counters["mapreduce_reduce_groups_total"] == 3
        assert counters["mapreduce_output_records_total"] == 3

    def test_counters_accumulate_across_runs(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        job = MapReduceJob(
            _word_mapper, _sum_reducer, metrics=registry
        )
        job.run(["a"])
        job.run(["b b"])
        counters = registry.snapshot().counters
        assert counters["mapreduce_jobs_total"] == 2
        assert counters["mapreduce_input_records_total"] == 2
        assert counters["mapreduce_map_output_records_total"] == 3

    def test_guarded_path_counts_attempts_and_retries(self):
        from repro.faults import FaultPlan, RetryPolicy
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        plan = FaultPlan(seed=1).crash("map", index=0, attempts=1)
        job = MapReduceJob(
            _word_mapper,
            _sum_reducer,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            fault_plan=plan,
            metrics=registry,
        )
        job.run(["a b", "c d"])
        counters = registry.snapshot().counters
        # The map task crashes once and is retried; each of the four
        # reduce chunks (one key each) runs once.
        assert counters["mapreduce_attempts_total"] == 2 + 4
        assert counters["mapreduce_retries_total"] == 1
        assert counters["mapreduce_timed_out_tasks_total"] == 0
        assert (job.stats.attempts, job.stats.retries) == (6, 1)

    def test_stats_published_even_when_the_job_dies(self):
        from repro.errors import RetryExhaustedError
        from repro.faults import FaultPlan
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        plan = FaultPlan(seed=1).crash("map", index=0, attempts=0)
        job = MapReduceJob(
            _word_mapper, _sum_reducer, fault_plan=plan, metrics=registry
        )
        with pytest.raises(RetryExhaustedError):
            job.run(["a b"])
        counters = registry.snapshot().counters
        assert counters["mapreduce_jobs_total"] == 1
        assert counters["mapreduce_attempts_total"] >= 1


def _run_on_pool(pool, job, records):
    """``job``'s map → shuffle → reduce with every task sent to ``pool``.

    ``pool.map`` pickles the task (and with it the job's mapper and
    reducer) and returns results in submission order, so the merge
    below is the engine's: sorted keys, chunk by chunk.
    """
    ((shuffled, _map_output),) = pool.map(
        functools.partial(engine._map_records, job.mapper), [records]
    )
    chunk_outputs = pool.map(
        functools.partial(engine._reduce_chunk, job.reducer),
        job._chunk_groups(sorted(shuffled, key=repr), shuffled),
    )
    return [
        record
        for chunk_output in chunk_outputs
        for group_output in chunk_output
        for record in group_output
    ]


def test_jobs_distribute_to_the_same_bytes():
    """The engine starts no worker, but its tasks stay distributable:
    the fuse's own job — a record per component, ACCU bound into the
    reducer — run on a two-process pool owned by this test, gives the
    in-process output."""
    records = list(enumerate(sharding.shard_claims(three_component_claims())))
    job = MapReduceJob(
        sharding._component_mapper,
        functools.partial(
            sharding._component_reducer, Accu(tolerance=0.0).fuse
        ),
    )

    def as_bytes(output):
        return [
            (component, result.canonical_bytes())
            for component, result in output
        ]

    with ProcessPoolExecutor(
        max_workers=2, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        distributed = _run_on_pool(pool, job, records)
    assert len(distributed) == 3
    assert as_bytes(distributed) == as_bytes(job.run(records))
