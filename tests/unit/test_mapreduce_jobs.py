"""Unit tests for fusion expressed as MapReduce jobs."""

import functools
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.fusion.accu import Accu
from repro.fusion.vote import Vote
from repro.mapreduce import engine, jobs
from repro.mapreduce.jobs import mr_accu, mr_vote
from repro.synth.claims import ClaimWorldConfig, generate_claim_world


@pytest.fixture(scope="module")
def claim_world():
    return generate_claim_world(
        ClaimWorldConfig(
            seed=41, n_items=60, n_sources=9,
            source_accuracies=[0.9, 0.9, 0.85, 0.6, 0.55, 0.5, 0.5, 0.45, 0.4],
            false_pool=4,
        )
    )


class TestMrVote:
    def test_agrees_with_in_memory_vote(self, claim_world):
        memory = Vote().fuse(claim_world.claims)
        distributed = mr_vote(claim_world.claims)
        assert distributed.truths == memory.truths

    def test_partition_invariance(self, claim_world):
        one = mr_vote(claim_world.claims, partitions=1)
        many = mr_vote(claim_world.claims, partitions=8)
        assert one.truths == many.truths

    def test_beliefs_normalised(self, claim_world):
        result = mr_vote(claim_world.claims)
        items = {}
        for (item, _value), belief in result.belief.items():
            items[item] = items.get(item, 0.0) + belief
        assert all(abs(total - 1.0) < 1e-9 for total in items.values())


class TestMrAccu:
    def test_agrees_with_in_memory_accu(self, claim_world):
        memory = Accu(max_iterations=10).fuse(claim_world.claims)
        distributed = mr_accu(claim_world.claims, rounds=10)
        agreements = sum(
            1
            for item, truth in memory.truths.items()
            if distributed.truths.get(item) == truth
        )
        assert agreements / len(memory.truths) > 0.95

    def test_partition_invariance(self, claim_world):
        few = mr_accu(claim_world.claims, rounds=5, partitions=2)
        many = mr_accu(claim_world.claims, rounds=5, partitions=7)
        assert few.truths == many.truths
        for source in few.source_quality:
            assert few.source_quality[source] == pytest.approx(
                many.source_quality[source]
            )

    def test_learns_accuracy_ordering(self, claim_world):
        result = mr_accu(claim_world.claims, rounds=10)
        learned = result.source_quality
        good = [s for s, a in claim_world.source_accuracy.items() if a > 0.8]
        bad = [s for s, a in claim_world.source_accuracy.items() if a < 0.5]
        avg = lambda xs: sum(learned[s] for s in xs) / len(xs)
        assert avg(good) > avg(bad)

    def test_precision_beats_vote(self, claim_world):
        vote = mr_vote(claim_world.claims)
        accu = mr_accu(claim_world.claims, rounds=10)
        assert claim_world.precision_of(accu.truths) >= (
            claim_world.precision_of(vote.truths)
        )


def _run_on_pool(pool, job, records):
    """``job``'s map → shuffle → reduce with every task sent to ``pool``.

    ``pool.map`` pickles the task (and with it the job's mapper,
    combiner and reducer) and returns results in submission order, so
    the merge below is the engine's: partition order, then sorted keys.
    """
    partition_results = pool.map(
        functools.partial(engine._map_partition, job.mapper, job.combiner),
        job._split(records),
    )
    shuffled = {}
    for groups, *_counters in partition_results:
        for key, values in groups:
            shuffled.setdefault(key, []).extend(values)
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


def test_jobs_distribute_to_the_same_bytes(claim_world):
    """The engine starts no worker, but its tasks stay distributable:
    the VOTE job and both jobs of an ACCU round, run on a two-process
    pool owned by this test, give the in-process output."""
    claims = list(claim_world.claims)
    accuracy = {source: 0.8 for source in claim_world.claims.sources()}
    vote_job = engine.MapReduceJob(jobs._vote_mapper, jobs._vote_reducer)
    score_job = engine.MapReduceJob(
        jobs._accu_score_mapper,
        functools.partial(jobs._accu_score_reducer, accuracy, 10, 0.05, 0.99),
        partitions=3,
    )
    accuracy_job = engine.MapReduceJob(
        jobs._accuracy_mapper,
        jobs._accuracy_reducer,
        combiner=jobs._accuracy_combiner,
    )
    scored = score_job.run(claims)
    with ProcessPoolExecutor(max_workers=2) as pool:
        assert _run_on_pool(pool, vote_job, claims) == vote_job.run(claims)
        assert _run_on_pool(pool, score_job, claims) == scored
        assert _run_on_pool(pool, accuracy_job, scored) == (
            accuracy_job.run(scored)
        )
