"""Unit tests for the MapReduce retry layer (RetryPolicy + guards).

Everything here runs in fake time: crashes and slow calls come from a
seeded :class:`~repro.faults.FaultPlan`, backoff goes through an
injected sleep recorder, and deadlines compare *reported* durations —
no test ever waits.
"""

import os

import pytest

from repro.errors import ReproError, RetryExhaustedError, StageTimeoutError
from repro.faults import FaultPlan, InjectedFault
from repro.mapreduce.engine import MapReduceJob, RetryPolicy
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


def _exit_mapper(record):
    # Simulates a segfaulting/OOM-killed worker: the process dies
    # without raising, which breaks the whole ProcessPoolExecutor.
    os._exit(1)


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
            {"jitter": -0.1},
            {"jitter": 1.0},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ReproError):
            RetryPolicy(**kwargs)


class TestRetryJitter:
    def test_jitter_off_is_byte_identical_to_plain_exponential(self):
        plain = RetryPolicy(backoff_base=0.05)
        explicit_off = RetryPolicy(backoff_base=0.05, jitter=0.0,
                                   jitter_seed=1234)
        schedule = [plain.backoff(n) for n in range(6)]
        assert [explicit_off.backoff(n) for n in range(6)] == schedule
        assert schedule == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]

    def test_schedule_is_reproducible_per_seed(self):
        first = RetryPolicy(backoff_base=0.05, jitter=0.5, jitter_seed=7)
        second = RetryPolicy(backoff_base=0.05, jitter=0.5, jitter_seed=7)
        schedule = [first.backoff(n) for n in range(8)]
        assert [second.backoff(n) for n in range(8)] == schedule
        # Pure function of (seed, retry_number): call order is irrelevant.
        assert [first.backoff(n) for n in reversed(range(8))] == list(
            reversed(schedule)
        )

    def test_different_seeds_break_lockstep(self):
        schedules = [
            tuple(
                RetryPolicy(
                    backoff_base=0.05, jitter=0.5, jitter_seed=seed
                ).backoff(n)
                for n in range(6)
            )
            for seed in range(4)
        ]
        assert len(set(schedules)) == len(schedules)

    def test_jitter_is_bounded_around_the_exponential(self):
        policy = RetryPolicy(backoff_base=0.05, jitter=0.25, jitter_seed=3)
        for n in range(10):
            base = 0.05 * 2.0**n
            assert base * 0.75 <= policy.backoff(n) <= base * 1.25

    def test_injectable_rng_overrides_the_seeded_source(self):
        calls = []

        def rng(retry_number):
            calls.append(retry_number)
            return 1.0 - 2**-53  # max uniform draw -> max spread

        policy = RetryPolicy(
            backoff_base=0.1, jitter=0.5, jitter_seed=99, jitter_rng=rng
        )
        delay = policy.backoff(2)
        assert calls == [2]
        assert delay == pytest.approx(0.1 * 4 * 1.5, rel=1e-9)


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


class TestProcessExecutorFaults:
    def test_faulty_process_run_matches_clean_serial_run(self):
        plan = FaultPlan(seed=1).crash("map", index=0, attempts=1)
        job = MapReduceJob(
            _mapper, _reducer, partitions=3, executor="process",
            max_workers=2,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            fault_plan=plan,
        )
        assert job.run(WORDS) == _clean_output()
        assert job.stats.retries == 1

    def test_broken_pool_does_not_poison_subsequent_jobs(self):
        # A worker that dies mid-task breaks the shared pool; the next
        # job asking for the same worker count must get a fresh pool
        # instead of the broken cached one.
        dying = MapReduceJob(
            _exit_mapper, _reducer, partitions=2, executor="process",
            max_workers=2,
        )
        with pytest.raises(Exception):
            dying.run(WORDS)
        healthy = MapReduceJob(
            _mapper, _reducer, partitions=2, executor="process",
            max_workers=2,
        )
        assert healthy.run(WORDS) == _clean_output()


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
