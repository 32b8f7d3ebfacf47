"""Chaos tests: one tenant's disaster never leaks into its neighbors.

Faults here are injected into exactly one tenant of a mix — transient
crashes, a permanent poison delta, an unrecoverable crash storm, and
log backpressure — and in every case the *other* tenant's committed
versions must be byte-identical to its fault-free solo run.  The
faulted tenant itself must follow the serving layer's own contracts
(heal via redelivery + fence, degrade on poison, halt on a storm).
"""

import pytest

from repro.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.serving.tenancy import TenantManager
from repro.synth.tenants import TenantMixConfig, build_tenant_workload

MIX = TenantMixConfig(
    n_tenants=2, seed=59, kinds=("static",), n_items=8, n_sources=3,
    parts=3,
)
VICTIM, BYSTANDER = "tenant00", "tenant01"


def solo_reference(name: str):
    """Fault-free solo run of one mix member -> (version, registry)."""
    spec = next(s for s in MIX.specs() if s.name == name)
    registry = MetricsRegistry()
    manager = TenantManager(
        [build_tenant_workload(spec)], metrics=registry
    )
    manager.drain_fair()
    return manager.tenant(name).server.versions.current, registry


@pytest.fixture(scope="module")
def bystander_reference():
    return solo_reference(BYSTANDER)


def assert_bystander_untouched(manager, bystander_reference):
    reference, solo_registry = bystander_reference
    runtime = manager.tenant(BYSTANDER)
    assert runtime.finished
    assert runtime.halted is None
    current = runtime.server.versions.current
    assert current.canonical_bytes() == reference.canonical_bytes()
    assert current.version_id == reference.version_id
    if manager.metrics is not None:
        mine = (
            manager.metrics.snapshot()
            .label_subset(tenant=BYSTANDER)
            .deterministic_subset()
        )
        solo = (
            solo_registry.snapshot()
            .label_subset(tenant=BYSTANDER)
            .deterministic_subset()
        )
        assert mine == solo


class TestCrashIsolation:
    @pytest.mark.parametrize(
        "scope", ["stream:apply", "stream:post-commit"]
    )
    def test_transient_crash_in_one_tenant_heals_and_spares_the_other(
        self, scope, bystander_reference
    ):
        registry = MetricsRegistry()
        manager = TenantManager.from_mix(
            MIX,
            metrics=registry,
            fault_plans={
                VICTIM: FaultPlan(seed=5).crash(scope, index=1),
            },
        )
        manager.drain_fair()
        victim = manager.tenant(VICTIM)
        # The victim heals: redelivery plus the dedup fence make the
        # retried step exactly-once, so it converges to its own
        # fault-free bytes too.
        assert victim.finished and victim.halted is None
        reference, _ = solo_reference(VICTIM)
        assert victim.server.versions.current.canonical_bytes() == (
            reference.canonical_bytes()
        )
        if scope == "stream:post-commit":
            # This crash point escapes step(); the manager's tenant
            # boundary absorbed it and redelivery hit the fence.
            assert registry.snapshot().label_subset(
                tenant=VICTIM
            ).counters.get("tenant_faults_total{tenant=tenant00}")
        else:
            # stream:apply is retried inside the server; the manager
            # never even saw a fault.
            assert victim.fault_count == 0
        assert_bystander_untouched(manager, bystander_reference)

    def test_poison_storm_degrades_one_tenant_only(
        self, bystander_reference
    ):
        registry = MetricsRegistry()
        manager = TenantManager.from_mix(
            MIX,
            metrics=registry,
            fault_plans={
                VICTIM: FaultPlan(seed=5).crash(
                    "stream:apply", index=0, attempts=0
                ),
            },
        )
        manager.drain_fair()
        victim = manager.tenant(VICTIM)
        # Poison is parked, not fatal: the victim finishes its stream
        # minus the poisoned delta, flagged degraded.
        assert victim.finished and victim.halted is None
        status = victim.server.status()
        assert status.poisoned == 1
        assert status.quarantined_held == 1
        # Later clean deltas applied, so the victim still advanced past
        # the parked one.
        assert status.version_id == len(victim.pending)
        assert_bystander_untouched(manager, bystander_reference)

    @pytest.mark.parametrize("scope", ["stream:deliver", "stream:commit"])
    def test_unrecoverable_storm_halts_the_victim_not_the_fleet(
        self, scope, bystander_reference
    ):
        # deliver/commit crash points are attempt-unaware (they model
        # process death): in one process the same offset re-fires the
        # fault on every redelivery — a storm the manager must contain.
        registry = MetricsRegistry()
        manager = TenantManager.from_mix(
            MIX,
            metrics=registry,
            fault_limit=4,
            fault_plans={
                VICTIM: FaultPlan(seed=5).crash(scope, index=1),
            },
        )
        rounds = manager.drain_fair()
        assert rounds > 0  # the loop terminated despite a dead tenant
        victim = manager.tenant(VICTIM)
        assert victim.halted is not None
        assert "fault limit 4" in victim.halted
        assert "InjectedFault" in (victim.last_fault or "")
        assert not victim.finished
        report = manager.eval_rows(rounds=rounds)
        assert report.row(VICTIM).halted is not None
        assert report.row(BYSTANDER).halted is None
        assert_bystander_untouched(manager, bystander_reference)


class TestBackpressureIsolation:
    def test_tiny_logs_defer_but_never_corrupt(self, bystander_reference):
        # capacity=1 keeps every log at its bound.  A turn publishes one
        # event and consumes it, so only an event the consumer leaves
        # behind makes the next publish wait: a post-commit crash in the
        # victim does (the version is in, the offset is not acked).  The
        # deferred publish retries on a later round and the final bytes
        # still match the roomy solo run.
        registry = MetricsRegistry()
        manager = TenantManager.from_mix(
            MIX,
            capacity=1,
            metrics=registry,
            fault_plans={
                VICTIM: FaultPlan(seed=5).crash(
                    "stream:post-commit", index=1
                ),
            },
        )
        manager.drain_fair()
        victim = manager.tenant(VICTIM)
        assert victim.deferred_publishes > 0
        assert registry.snapshot().counters[
            f"tenant_publish_deferred_total{{tenant={VICTIM}}}"
        ] == victim.deferred_publishes
        for name in (VICTIM, BYSTANDER):
            runtime = manager.tenant(name)
            assert runtime.finished
            reference, _ = solo_reference(name)
            assert runtime.server.versions.current.canonical_bytes() == (
                reference.canonical_bytes()
            )
        reference, _ = bystander_reference
        bystander = manager.tenant(BYSTANDER)
        assert bystander.server.versions.current.version_id == (
            reference.version_id
        )
