"""Chaos tests: drifting truth served through a crashing stream.

The drift-specific contract: when ingest crashes mid-epoch, serving
stays on the last *committed* KB version, and the freshness metrics
computed for that version are honest — they report the served
version's real epoch (``version.version_id``), so the staleness lag is
the true number of epochs the served KB is behind, not zero.  Healing
(re-draining) converges to the byte-identical fault-free end state.

All faults come from seeded :class:`~repro.faults.FaultPlan`
schedules; nothing here sleeps or depends on wall time.
"""

import pytest

from repro.errors import GenerationError
from repro.evalx.freshness import freshness_report
from repro.faults import FaultPlan, InjectedFault, RetryPolicy
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.obs.metrics import MetricsRegistry
from repro.rdf.store import TripleStore
from repro.serving.server import KBServer
from repro.serving.stream import EventLog
from repro.synth.drift import DriftConfig, DriftingWorld

CONFIG = DriftConfig(seed=11, n_items=16, n_sources=5, epochs=4)


def make_server(world, *, stream_plan=None, metrics=None):
    store = TripleStore()
    store.add_all(world.base)
    engine = KnowledgeFusion(
        tolerance=0.0, max_iterations=8
    ).begin_incremental(store)
    return KBServer(
        engine,
        EventLog(1024, metrics=metrics),
        retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        fault_plan=stream_plan,
        metrics=metrics,
    )


def fault_free_bytes(world):
    server = make_server(world)
    for delta in world.deltas():
        server.publish(delta)
    server.drain()
    return server.versions.current.result.canonical_bytes()


@pytest.mark.parametrize("crash_after", [1, 2])
def test_crash_mid_epoch_serves_committed_version_with_honest_lag(
    crash_after,
):
    world = DriftingWorld(CONFIG)
    # Crash the commit of epoch (crash_after + 1): the first
    # crash_after epochs commit, the next one dies mid-step.
    plan = FaultPlan(seed=5).crash("stream:commit", index=crash_after)
    server = make_server(world, stream_plan=plan)
    for delta in world.deltas():
        server.publish(delta)
    with pytest.raises(InjectedFault):
        server.drain()

    version = server.versions.current
    # Serving sits on the last committed version: exactly crash_after
    # epoch deltas are reflected, nothing torn.  (version_id counts
    # committed deltas; the engine-side sequence can overshoot when an
    # apply succeeded but its commit crashed.)
    assert version.version_id == crash_after
    assert len(version.applied) == crash_after

    # Freshness metrics must report the served epoch, not the
    # published head — the staleness lag is real.
    published = world.current_epoch
    fresh = freshness_report(
        version.result.truths,
        served_epoch=version.version_id,
        current_epoch=published,
        served_truth=world.truth_at(version.version_id),
        current_truth=world.truth_at(published),
    )
    assert fresh.lag_epochs == published - crash_after
    # The committed version is its own epoch's fusion output: scoring
    # it against the drifted current truth must be measurably worse
    # than against the truth of the epoch it actually reflects.
    assert fresh.vs_current.f1 < fresh.vs_served.f1
    assert fresh.stale_items > 0

    # Healing: the crash was transient infrastructure, so the
    # remaining epochs redeliver and the end state is byte-identical
    # to a fault-free run of the same stream.
    server.fault_plan = None
    server.drain()
    assert server.versions.current.version_id == world.current_epoch
    assert (
        server.versions.current.result.canonical_bytes()
        == fault_free_bytes(DriftingWorld(CONFIG))
    )


def test_reader_pinned_before_crash_is_unaffected():
    world = DriftingWorld(CONFIG)
    plan = FaultPlan(seed=9).crash("stream:commit", index=1)
    server = make_server(world, stream_plan=plan)
    for delta in world.deltas():
        server.publish(delta)
    with pytest.raises(InjectedFault):
        server.drain()
    reader = server.reader()  # pins the committed version (epoch 1)
    before = reader.version.result.canonical_bytes()
    server.fault_plan = None
    server.drain()  # heal to the stream head
    assert reader.version.result.canonical_bytes() == before
    assert server.versions.current.version_id > reader.version.version_id


@pytest.mark.parametrize("drain_every", [2, 3])
def test_lazy_drain_lags_k_minus_one_and_ends_on_the_same_bytes(drain_every):
    """A consumer that falls behind a moving world: epochs published
    continuously but drained every k-th.  The freshness lag after each
    publish tops out at exactly k - 1, and the stream is the same
    stream however it is drained."""
    world = DriftingWorld(
        DriftConfig(seed=11, n_items=16, n_sources=5, epochs=7)
    )
    eager, lazy = make_server(world), make_server(world)
    lags = []
    for published, delta in enumerate(world.deltas(), start=1):
        eager.publish(delta)
        eager.drain()
        lazy.publish(delta)
        if published % drain_every == 0:
            lazy.drain()
        lags.append(published - lazy.versions.current.version_id)
    assert lags == [n % drain_every for n in range(1, 8)]
    assert max(lags) == drain_every - 1
    lazy.drain()
    assert (
        lazy.versions.current.result.canonical_bytes()
        == eager.versions.current.result.canonical_bytes()
    )


def test_drift_metrics_survive_crash(tmp_path):
    """drift_* metrics published before a crash stay in the registry."""
    world = DriftingWorld(CONFIG)
    metrics = MetricsRegistry()
    plan = FaultPlan(seed=3).crash("stream:commit", index=0)
    server = make_server(world, stream_plan=plan, metrics=metrics)
    for index, epoch in enumerate(world.epochs, start=1):
        metrics.counter("drift_epochs_total").inc()
        server.publish(epoch.delta)
    with pytest.raises(InjectedFault):
        server.drain()
    snapshot = metrics.snapshot().to_json_dict()
    assert snapshot["counters"]["drift_epochs_total"] == world.current_epoch
    # The event log knows more epochs were published than committed.
    assert server.status().lag_events > 0


def test_mutation_rates_that_would_empty_the_store_are_rejected():
    # Seed 3 re-observes the only (changed) item with no coverage hit:
    # the epoch delta would leave the claim store empty, which the
    # generator refuses instead of handing serving an unfusable world.
    with pytest.raises(GenerationError, match="epoch 1"):
        DriftingWorld(
            DriftConfig(
                seed=3, n_items=1, n_sources=1, epochs=1,
                coverage=0.4, value_change_rate=1.0,
                birth_rate=0.0, death_rate=0.0, rename_rate=0.0,
            )
        )
