"""Unit tests for the deterministic fault-injection plans."""

import pickle

import pytest

from repro.core.pipeline import STAGES
from repro.errors import ReproError, RetryExhaustedError, StageTimeoutError
from repro.faults import (
    SCOPES,
    CorruptedRecord,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    fire,
)


class TestFaultSpec:
    def test_transient_crash_matches_only_early_attempts(self):
        spec = FaultSpec("crash", "map", index=1, attempts=2)
        assert spec.matches("map", 1, 0)
        assert spec.matches("map", 1, 1)
        assert not spec.matches("map", 1, 2)

    def test_permanent_fault_matches_every_attempt(self):
        spec = FaultSpec("crash", "map", index=0, attempts=0)
        assert all(spec.matches("map", 0, attempt) for attempt in range(10))

    def test_index_none_matches_every_task(self):
        spec = FaultSpec("slow", "reduce", index=None, seconds=5.0)
        assert spec.matches("reduce", 0, 0)
        assert spec.matches("reduce", 17, 0)

    def test_scope_mismatch_never_matches(self):
        spec = FaultSpec("crash", "map", index=0)
        assert not spec.matches("reduce", 0, 0)


class TestFaultPlanHooks:
    def test_crash_raises_injected_fault(self):
        plan = FaultPlan(seed=1).crash("map", index=2)
        with pytest.raises(InjectedFault):
            plan.task_delay("map", 2, 0)

    def test_crash_is_transient_by_default(self):
        plan = FaultPlan(seed=1).crash("map", index=2)
        with pytest.raises(InjectedFault):
            plan.task_delay("map", 2, 0)
        assert plan.task_delay("map", 2, 1) == 0.0

    def test_slow_sums_injected_seconds_without_sleeping(self):
        plan = (
            FaultPlan(seed=1)
            .slow("stage:dom-extraction", seconds=30.0)
            .slow("stage:dom-extraction", seconds=12.5)
        )
        assert plan.task_delay("stage:dom-extraction", 0, 0) == 42.5
        assert plan.task_delay("stage:webtext-extraction", 0, 0) == 0.0

    def test_corrupt_record_replaces_only_target_index(self):
        plan = FaultPlan(seed=5).corrupt("records:querystream", index=3)
        clean = plan.corrupt_record("records:querystream", 2, "fine")
        corrupted = plan.corrupt_record("records:querystream", 3, "doomed")
        assert clean == "fine"
        assert isinstance(corrupted, CorruptedRecord)
        assert corrupted.original_repr == "'doomed'"

    def test_corruption_garbage_is_seeded_and_deterministic(self):
        first = FaultPlan(seed=5).corrupt("records:dom", index=1)
        second = FaultPlan(seed=5).corrupt("records:dom", index=1)
        other_seed = FaultPlan(seed=6).corrupt("records:dom", index=1)
        a = first.corrupt_record("records:dom", 1, object())
        b = second.corrupt_record("records:dom", 1, object())
        c = other_seed.corrupt_record("records:dom", 1, object())
        assert a.garbage == b.garbage
        assert a.garbage != c.garbage

    def test_hooks_never_mutate_the_plan(self):
        plan = FaultPlan(seed=1).crash("map", index=0).corrupt(
            "records:dom", index=0
        )
        before = list(plan.specs)
        with pytest.raises(InjectedFault):
            plan.task_delay("map", 0, 0)
        plan.task_delay("map", 0, 5)
        plan.corrupt_record("records:dom", 0, "x")
        assert plan.specs == before

    def test_plan_is_picklable(self):
        plan = (
            FaultPlan(seed=9)
            .crash("map", index=0, attempts=2)
            .slow("reduce", seconds=1.0, index=None)
            .corrupt("records:webtext", index=4)
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.specs == plan.specs
        assert clone.seed == plan.seed
        with pytest.raises(InjectedFault):
            clone.task_delay("map", 0, 1)


class TestRoster:
    @pytest.mark.parametrize(
        "build",
        [
            lambda plan: plan.crash("stream:aply"),
            lambda plan: plan.slow("stage:dom", seconds=1.0),
            lambda plan: plan.corrupt("records:html", index=0),
        ],
        ids=["crash", "slow", "corrupt"],
    )
    def test_a_plan_rejects_a_scope_off_the_roster(self, build):
        # A misspelt plan would otherwise inject nothing, and the chaos
        # test built on it would pass without testing anything.
        with pytest.raises(ReproError, match="unknown fault scope"):
            build(FaultPlan(seed=1))

    @pytest.mark.parametrize("plan", [None, FaultPlan(seed=1)])
    def test_firing_a_scope_off_the_roster_raises(self, plan):
        with pytest.raises(ReproError, match="unknown fault scope"):
            fire(plan, "stream:aply")

    def test_pipeline_stage_scopes_are_the_declared_stages(self):
        pipeline_scopes = {
            scope for scope in SCOPES
            if scope.startswith("stage:")
            and not scope.startswith("stage:incremental-")
        }
        assert pipeline_scopes == {f"stage:{name}" for name in STAGES}

    def test_fire_without_a_plan_injects_nothing(self):
        assert all(fire(None, scope, 3, 1) == 0.0 for scope in SCOPES)

    def test_fire_is_the_plans_hook(self):
        plan = FaultPlan(seed=1).slow("reduce", seconds=2.5, index=1)
        assert fire(plan, "reduce", 1) == 2.5
        assert fire(plan, "reduce", 0) == 0.0
        with pytest.raises(InjectedFault):
            fire(FaultPlan().crash("map"), "map")


class TestRetryPolicyCall:
    def test_a_transient_fault_is_retried_after_a_backoff(self):
        sleeps = []
        policy = RetryPolicy(max_attempts=3, backoff_base=0.5,
                             sleep=sleeps.append)
        plan = FaultPlan(seed=1).crash("reduce", index=2, attempts=2)
        result, record = policy.call("reduce", 2, lambda: "done", plan=plan)
        assert result == "done"
        assert (record.attempts, record.timed_out) == (3, 0)
        assert sleeps == [0.5, 1.0]

    def test_injected_seconds_breach_the_deadline(self):
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0, timeout=5.0)
        plan = FaultPlan(seed=1).slow("map", seconds=99.0, attempts=1)
        result, record = policy.call("map", 0, lambda: 7, plan=plan)
        assert result == 7
        assert (record.attempts, record.timed_out) == (2, 1)
        assert record.injected_seconds == 99.0

    def test_the_last_failure_is_the_cause_and_the_record_rides_along(self):
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0, timeout=5.0)
        plan = FaultPlan(seed=1).slow("map", seconds=99.0, attempts=0)
        with pytest.raises(RetryExhaustedError) as excinfo:
            policy.call("map", 0, lambda: 7, plan=plan)
        assert isinstance(excinfo.value.__cause__, StageTimeoutError)
        assert "map task 0 failed after 2 attempt(s)" in str(excinfo.value)
        record = excinfo.value.record
        assert (record.attempts, record.timed_out) == (2, 2)

    def test_an_interrupt_is_not_retried(self):
        calls = []

        def body():
            calls.append(1)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            RetryPolicy(max_attempts=3, backoff_base=0.0).call("map", 0, body)
        assert calls == [1]
