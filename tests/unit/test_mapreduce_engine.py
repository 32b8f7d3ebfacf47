"""Unit tests for the local MapReduce engine."""

import pytest

from repro.errors import ReproError
from repro.mapreduce.engine import MapReduceJob, word_count


class TestWordCount:
    def test_counts(self):
        counts = word_count(["a b a", "b c", "A"])
        assert counts == {"a": 3, "b": 2, "c": 1}

    def test_empty_input(self):
        assert word_count([]) == {}


class TestJobMechanics:
    def test_bad_partitions_rejected(self):
        with pytest.raises(ReproError):
            MapReduceJob(lambda x: [], lambda k, v: [], partitions=0)

    def test_partition_count_does_not_change_result(self):
        documents = [f"w{i % 5} w{i % 3}" for i in range(50)]
        results = []
        for partitions in (1, 3, 7):
            job = MapReduceJob(
                lambda doc: [(word, 1) for word in doc.split()],
                lambda word, counts: [(word, sum(counts))],
                partitions=partitions,
            )
            results.append(dict(job.run(documents)))
        assert results[0] == results[1] == results[2]

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
        assert stats.attempts == 4 + 4  # map partitions + reduce chunks

    def test_combiner_preserves_result(self):
        documents = [f"w{i % 5}" for i in range(40)]
        plain = MapReduceJob(
            lambda doc: [(word, 1) for word in doc.split()],
            lambda word, counts: [(word, sum(counts))],
        )
        combined = MapReduceJob(
            lambda doc: [(word, 1) for word in doc.split()],
            lambda word, counts: [(word, sum(counts))],
            combiner=lambda word, counts: [sum(counts)],
        )
        assert dict(plain.run(documents)) == dict(combined.run(documents))

    def test_combiner_reduces_shuffle_volume(self):
        documents = ["x x x x"] * 10
        job = MapReduceJob(
            lambda doc: [(word, 1) for word in doc.split()],
            lambda word, counts: [(word, sum(counts))],
            combiner=lambda word, counts: [sum(counts)],
            partitions=2,
        )
        job.run(documents)
        assert job.stats.map_output_records == 40
        assert job.stats.combine_output_records == 2

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
        # output list is the next job's input (how mr_accu iterates).
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

    def test_guarded_path_counts_waves_and_retries(self):
        from repro.faults import FaultPlan, RetryPolicy
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        plan = FaultPlan(seed=1).crash("map", index=0, attempts=1)
        job = MapReduceJob(
            _word_mapper,
            _sum_reducer,
            partitions=2,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            fault_plan=plan,
            metrics=registry,
        )
        job.run(["a b", "c d"])
        snapshot = registry.snapshot()
        # Wave 1 runs both scopes' tasks; the injected crash forces a
        # second map wave.
        assert snapshot.counters["mapreduce_waves_total{scope=map}"] == 2
        assert snapshot.counters["mapreduce_waves_total{scope=reduce}"] == 1
        assert snapshot.counters["mapreduce_retries_total"] == 1
        assert (
            snapshot.counters["mapreduce_attempts_total"]
            == job.stats.attempts
        )
        waves = snapshot.histograms["mapreduce_wave_seconds{scope=map}"]
        assert waves.count == 2

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
