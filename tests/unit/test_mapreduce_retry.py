"""Unit tests for the MapReduce retry layer (RetryPolicy + guards).

Everything here runs in fake time: crashes and slow calls come from a
seeded :class:`~repro.faults.FaultPlan`, backoff goes through an
injected sleep recorder, and deadlines compare *reported* durations —
no test ever waits.
"""

import pytest

from repro.errors import ReproError, RetryExhaustedError, StageTimeoutError
from repro.faults import FaultPlan, InjectedFault, RetryPolicy
from repro.mapreduce.engine import MapReduceJob
from repro.mapreduce.jobs import mr_vote
from repro.fusion.base import Claim, ClaimSet

WORDS = [
    "fusion", "vote", "fusion", "accu", "claim", "vote", "fusion",
    "truth", "claim", "source", "truth", "fusion",
]


def _mapper(record):
    yield record, 1


def _reducer(key, values):
    yield key, sum(values)


def _poison_mapper(record):
    if record == "poison":
        raise ValueError("bad record")
    yield record, 1


def _job(**kwargs) -> MapReduceJob:
    return MapReduceJob(_mapper, _reducer, partitions=3, **kwargs)


def _clean_output():
    return _job().run(WORDS)


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy(backoff_base=0.05)
        assert [policy.backoff(n) for n in range(4)] == [
            0.05, 0.1, 0.2, 0.4,
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base": -1.0},
            {"timeout": 0.0},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ReproError):
            RetryPolicy(**kwargs)


class TestGuardedExecution:
    def test_transient_crash_is_retried_to_identical_output(self):
        plan = FaultPlan(seed=1).crash("map", index=1, attempts=1)
        job = _job(
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            fault_plan=plan,
        )
        assert job.run(WORDS) == _clean_output()
        assert job.stats.retries == 1
        assert job.stats.attempts > 0

    def test_retries_disabled_raises_retry_exhausted(self):
        plan = FaultPlan(seed=1).crash("map", index=1, attempts=1)
        job = _job(fault_plan=plan)  # no retry policy: single attempt
        with pytest.raises(RetryExhaustedError) as excinfo:
            job.run(WORDS)
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        assert "map task 1" in str(excinfo.value)

    def test_permanent_crash_exhausts_even_with_retries(self):
        plan = FaultPlan(seed=1).crash("reduce", index=0, attempts=0)
        job = _job(
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            fault_plan=plan,
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            job.run(WORDS)
        assert "after 3 attempt" in str(excinfo.value)

    def test_backoff_schedule_is_deterministic_and_fake_timed(self):
        sleeps = []
        plan = FaultPlan(seed=1).crash("map", index=0, attempts=2)
        job = _job(
            retry=RetryPolicy(
                max_attempts=3, backoff_base=0.5, sleep=sleeps.append
            ),
            fault_plan=plan,
        )
        assert job.run(WORDS) == _clean_output()
        assert sleeps == [0.5, 1.0]

    def test_slow_task_times_out_and_is_retried(self):
        plan = FaultPlan(seed=1).slow("map", seconds=99.0, index=0, attempts=1)
        job = _job(
            retry=RetryPolicy(
                max_attempts=3, backoff_base=0.0, timeout=5.0
            ),
            fault_plan=plan,
        )
        assert job.run(WORDS) == _clean_output()
        assert job.stats.timed_out_tasks == 1
        assert job.stats.retries == 1

    def test_permanently_slow_task_exhausts_with_timeout_cause(self):
        plan = FaultPlan(seed=1).slow("map", seconds=99.0, index=0, attempts=0)
        job = _job(
            retry=RetryPolicy(
                max_attempts=2, backoff_base=0.0, timeout=5.0
            ),
            fault_plan=plan,
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            job.run(WORDS)
        assert isinstance(excinfo.value.__cause__, StageTimeoutError)
        assert job.stats.timed_out_tasks == 2

    def test_poison_resplit_drops_only_the_poison_record(self):
        records = WORDS + ["poison"]
        job = MapReduceJob(
            _poison_mapper,
            _reducer,
            partitions=3,
            retry=RetryPolicy(
                max_attempts=2, backoff_base=0.0, resplit_poison=True
            ),
        )
        assert job.run(records) == _clean_output()
        assert job.stats.poisoned_records == 1

    def test_without_resplit_poison_record_sinks_the_job(self):
        job = MapReduceJob(
            _poison_mapper,
            _reducer,
            partitions=3,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
        )
        with pytest.raises(RetryExhaustedError):
            job.run(WORDS + ["poison"])

    def test_guarded_stats_start_from_clean_jobstats(self):
        job = _job(retry=RetryPolicy(max_attempts=2, backoff_base=0.0))
        job.run(WORDS)
        assert job.stats.retries == 0
        assert job.stats.poisoned_records == 0
        # A job without a policy goes through the same dispatch with a
        # one-attempt budget: every task is counted once.
        plain = _job()
        plain.run(WORDS)
        assert plain.stats.attempts == job.stats.attempts > 0
        assert plain.stats.retries == 0


class TestFusionJobPassthrough:
    def _claims(self) -> ClaimSet:
        claims = ClaimSet()
        for source, value in (
            ("s1", "a"), ("s2", "a"), ("s3", "b"), ("s1", "b"),
        ):
            claims.add(Claim(("e1", "p"), value, value, source, "ext"))
            claims.add(Claim(("e2", "p"), value, value, source, "ext"))
        return claims

    def test_mr_vote_with_transient_fault_matches_clean_run(self):
        claims = self._claims()
        clean = mr_vote(claims)
        plan = FaultPlan(seed=2).crash("map", index=0, attempts=1)
        faulty = mr_vote(
            claims,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            fault_plan=plan,
        )
        assert faulty.truths == clean.truths
        assert faulty.belief == clean.belief
