"""Chaos tests for the MapReduce engine: crashes cannot change output.

The contract under test: a job configured with a retry policy produces
*byte-identical* output under any injected-fault schedule it survives
— fault tolerance must never become a source of nondeterminism.
"""

import pytest

from repro.errors import RetryExhaustedError
from repro.faults import FaultPlan, RetryPolicy
from repro.mapreduce.engine import MapReduceJob
from repro.mapreduce.jobs import mr_accu
from repro.fusion.base import Claim, ClaimSet

RECORDS = [f"record-{i % 7}" for i in range(53)]


def _mapper(record):
    yield record, 1


def _reducer(key, values):
    yield key, sum(values)


def _chaos_plan() -> FaultPlan:
    # One map-partition crash, one reduce-chunk crash, one slow map
    # task: every guarded code path fires in one run.
    return (
        FaultPlan(seed=13)
        .crash("map", index=1, attempts=1)
        .crash("reduce", index=0, attempts=1)
        .slow("map", seconds=0.001, index=2, attempts=1)
    )


def _run(fault_plan: FaultPlan | None):
    job = MapReduceJob(
        _mapper,
        _reducer,
        partitions=4,
        retry=(
            RetryPolicy(max_attempts=3, backoff_base=0.0)
            if fault_plan is not None
            else None
        ),
        fault_plan=fault_plan,
    )
    return job.run(RECORDS), job.stats


class TestByteIdenticalUnderFaults:
    def test_serial_output_identical_to_fault_free_run(self):
        clean, _ = _run(None)
        chaotic, stats = _run(_chaos_plan())
        assert chaotic == clean
        assert stats.retries == 2

    def test_two_chaos_runs_are_identical(self):
        # Determinism of the fault schedule itself: same seed, same
        # plan, same stats, same output.
        first, first_stats = _run(_chaos_plan())
        second, second_stats = _run(_chaos_plan())
        assert first == second
        assert first_stats == second_stats

    def test_without_retries_the_same_plan_is_fatal(self):
        with pytest.raises(RetryExhaustedError):
            _run(_chaos_plan().crash("map", index=3, attempts=0))
        job = MapReduceJob(
            _mapper, _reducer, partitions=4, fault_plan=_chaos_plan()
        )
        with pytest.raises(RetryExhaustedError):
            job.run(RECORDS)


class TestIterativeJobUnderFaults:
    def _claims(self) -> ClaimSet:
        claims = ClaimSet()
        truth = {"e1": "a", "e2": "b", "e3": "a"}
        for source, accuracy_tier in (("s1", 0), ("s2", 0), ("s3", 1)):
            for entity, value in truth.items():
                claimed = value if accuracy_tier == 0 else "z"
                claims.add(
                    Claim((entity, "p"), claimed, claimed, source, "ext")
                )
        return claims

    def test_mr_accu_rounds_survive_transient_crashes(self):
        claims = self._claims()
        clean = mr_accu(claims, rounds=4)
        chaotic = mr_accu(
            claims,
            rounds=4,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            fault_plan=FaultPlan(seed=3).crash("map", index=0, attempts=1),
        )
        assert chaotic.truths == clean.truths
        assert chaotic.belief == clean.belief
        assert chaotic.source_quality == clean.source_quality
