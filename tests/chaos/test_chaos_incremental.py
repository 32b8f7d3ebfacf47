"""Chaos tests: crashes injected mid-``apply_delta`` never tear state.

The atomicity contract: a crash before the commit point leaves the
engine fully pre-delta (store bytes, fused result, sequence); a crash
after the commit point leaves it fully post-delta.  There is no
observable in-between.  Faults come from :mod:`repro.faults`, so every
schedule is deterministic and replayable.  A delta's re-fusion is the
fuse's MapReduce job, so its ``reduce`` tasks are fault points too: a
crash the job's retry policy outlives changes no byte, and one it
does not is a pre-commit crash.
"""

import pytest

from repro.errors import RetryExhaustedError
from repro.faults import FaultPlan, InjectedFault, RetryPolicy
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.incremental import ClaimDelta, canonical_claims
from repro.obs import MetricsRegistry
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value
from repro.synth.claims import ClaimWorldConfig, generate_claim_world
from repro.synth.deltas import scored_from_claims

PRE_COMMIT_SCOPES = ["stage:incremental-journal", "stage:incremental-fusion"]


def _store():
    world = generate_claim_world(
        ClaimWorldConfig(seed=91, n_items=8, n_sources=4)
    )
    store = TripleStore()
    store.add_all(scored_from_claims(world.claims))
    return store


def _fusion(**kwargs):
    return KnowledgeFusion(tolerance=0.0, max_iterations=8, **kwargs)


def _delta(store):
    subject = min(scored.triple.subject for scored in store.claims())
    return ClaimDelta(
        added=[
            ScoredTriple(
                Triple(subject, "capital", Value("chaos-town")),
                Provenance("source00", "synthetic"),
                0.8,
            )
        ],
        retracted=[store.claims()[0].triple],
        label="chaos",
    )


def _store_signature(store):
    return sorted(
        (
            scored.triple.subject,
            scored.triple.predicate,
            scored.triple.obj.lexical,
            scored.provenance.source_id,
            scored.confidence,
        )
        for scored in store.claims()
    )


@pytest.mark.parametrize("scope", PRE_COMMIT_SCOPES)
def test_pre_commit_crash_leaves_state_fully_pre_delta(scope):
    plan = FaultPlan(seed=5).crash(scope)
    engine = _fusion(fault_plan=plan).begin_incremental(_store())
    delta = _delta(engine.store)

    before_store = _store_signature(engine.store)
    before_bytes = engine.result.canonical_bytes()

    with pytest.raises(InjectedFault):
        engine.apply_delta(delta)

    assert _store_signature(engine.store) == before_store
    assert engine.result.canonical_bytes() == before_bytes
    assert engine.sequence == 0


def test_post_commit_crash_leaves_state_fully_post_delta():
    plan = FaultPlan(seed=5).crash("stage:incremental-commit")
    engine = _fusion(fault_plan=plan).begin_incremental(_store())
    delta = _delta(engine.store)

    with pytest.raises(InjectedFault):
        engine.apply_delta(delta)

    # The commit happened: store and sequence both moved.
    assert engine.sequence == 1
    added = delta.added[0].triple
    assert added in engine.store
    assert delta.retracted[0] not in engine.store
    reference = _fusion().fuse(canonical_claims(engine.store.copy()))
    assert engine.result.canonical_bytes() == reference.canonical_bytes()


@pytest.mark.parametrize("scope", PRE_COMMIT_SCOPES)
def test_reapply_after_crash_succeeds_and_matches_clean_run(scope):
    plan = FaultPlan(seed=5).crash(scope)
    engine = _fusion(fault_plan=plan).begin_incremental(_store())
    delta = _delta(engine.store)
    with pytest.raises(InjectedFault):
        engine.apply_delta(delta)

    # The fault was transient infrastructure; retry without it.
    engine.fault_plan = None
    outcome = engine.apply_delta(delta)
    assert outcome.sequence == 1

    clean = _fusion().begin_incremental(_store())
    clean_outcome = clean.apply_delta(_delta(clean.store))
    assert (
        outcome.result.canonical_bytes()
        == clean_outcome.result.canonical_bytes()
    )
    assert _store_signature(engine.store) == _store_signature(clean.store)


def test_identical_plans_crash_identically():
    states = []
    for _ in range(2):
        plan = FaultPlan(seed=9).crash("stage:incremental-fusion")
        engine = _fusion(fault_plan=plan).begin_incremental(_store())
        with pytest.raises(InjectedFault):
            engine.apply_delta(_delta(engine.store))
        states.append(
            (engine.result.canonical_bytes(), _store_signature(engine.store))
        )
    assert states[0] == states[1]


def test_slow_fault_inflates_reported_wall_time_without_sleeping():
    plan = FaultPlan(seed=1).slow("stage:incremental-fusion", seconds=90.0)
    engine = _fusion(fault_plan=plan).begin_incremental(_store())
    outcome = engine.apply_delta(_delta(engine.store))
    # Reported (not real) seconds include the injected delay.
    assert outcome.wall_seconds >= 90.0
    reference = _fusion().fuse(canonical_claims(engine.store.copy()))
    assert outcome.result.canonical_bytes() == reference.canonical_bytes()


def _retries(registry):
    return registry.snapshot().counters["mapreduce_retries_total"]


def test_a_crashed_component_task_is_retried_inside_the_deltas_job():
    # A delta re-fuses its dirty component as the fuse does, in one
    # MapReduce job under the fusion's retry policy: the job's first
    # reduce chunk crashes once, in the prime's job and in the delta's.
    registry = MetricsRegistry()
    engine = _fusion(
        retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
        fault_plan=FaultPlan().crash("reduce", index=0, attempts=1),
        metrics=registry,
    ).begin_incremental(_store())
    assert _retries(registry) == 1
    outcome = engine.apply_delta(_delta(engine.store))
    assert outcome.dirty_components == 1
    assert _retries(registry) == 2

    clean = _fusion().begin_incremental(_store())
    clean.apply_delta(_delta(clean.store))
    assert engine.result.canonical_bytes() == clean.result.canonical_bytes()


def test_a_component_task_that_never_succeeds_leaves_the_delta_unapplied():
    engine = _fusion(
        retry=RetryPolicy(max_attempts=2, backoff_base=0.0)
    ).begin_incremental(_store())
    delta = _delta(engine.store)
    before_store = _store_signature(engine.store)
    before_bytes = engine.result.canonical_bytes()

    engine.fault_plan = FaultPlan().crash("reduce", index=0, attempts=0)
    with pytest.raises(RetryExhaustedError) as excinfo:
        engine.apply_delta(delta)

    assert isinstance(excinfo.value.__cause__, InjectedFault)
    assert engine.sequence == 0
    assert _store_signature(engine.store) == before_store
    assert engine.result.canonical_bytes() == before_bytes
