"""Moving-truth example: drifting and copying worlds through serving.

Part 1 — **drift**: builds a seeded
:class:`~repro.synth.drift.DriftingWorld` whose ground truth mutates
over epochs (value changes, entity births/deaths, attribute renames)
and drives its epoch-delta stream through the pipeline's serving
layer with :func:`~repro.core.scenarios.run_drift`.  The per-epoch freshness table
separates *fusion quality* (f1 against the truth of the served epoch)
from *staleness* (what the served verdicts get wrong only because the
world moved on).

Part 2 — **a consumer that falls behind**: replays the same stream
but drains lazily, crashing the commit of epoch 3 — the served KB
pins to the last committed version and the freshness report states
the real lag instead of pretending to be current.

Part 3 — **copying**: builds a
:class:`~repro.synth.copying.CopyingWorld` where copier sources
replicate a victim's claims, errors included, and fuses it with
source correlations off and on.  The eval table shows the
correlation-aware mode suppressing the copied errors the blind
vote-count mode is fooled by.

Usage::

    PYTHONPATH=src python examples/drift_demo.py
"""

from repro.core.pipeline import KnowledgeBaseConstructionPipeline
from repro.core.scenarios import run_copying, run_drift
from repro.evalx.freshness import freshness_report
from repro.faults import FaultPlan, InjectedFault
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.rdf.store import TripleStore
from repro.serving.server import KBServer
from repro.serving.stream import EventLog
from repro.synth.copying import CopyingConfig
from repro.synth.drift import DriftConfig, DriftingWorld

DRIFT = DriftConfig(seed=7, n_items=30, n_sources=6, epochs=5)
COPYING = CopyingConfig(seed=0, n_items=60, lag=1)


def drift_through_pipeline() -> None:
    pipeline = KnowledgeBaseConstructionPipeline()
    report = run_drift(pipeline, DRIFT)
    print(report.table())
    total_changes = sum(row.value_changes for row in report.rows)
    print(
        f"{report.epochs} epochs over {report.base_claims} base claims: "
        f"{sum(r.births for r in report.rows)} births, "
        f"{sum(r.deaths for r in report.rows)} deaths, "
        f"{sum(r.renames for r in report.rows)} renames, "
        f"{total_changes} value changes"
    )
    assert report.final_version == DRIFT.epochs

    copying = run_copying(COPYING, metrics=pipeline.metrics)
    print()
    print(copying.table())
    aware = copying.mode("correlation-aware")
    blind = copying.mode("correlation-blind")
    assert aware.suppressed > blind.suppressed, (
        "correlation-aware fusion should suppress more copied errors"
    )
    print(
        f"correlations on suppresses {aware.suppressed}/"
        f"{copying.copied_errors} copied errors "
        f"(vote counting alone: {blind.suppressed})"
    )


def falling_behind() -> None:
    world = DriftingWorld(DRIFT)
    store = TripleStore()
    store.add_all(world.base)
    engine = KnowledgeFusion(
        tolerance=0.0, max_iterations=8
    ).begin_incremental(store)
    server = KBServer(
        engine,
        EventLog(256),
        fault_plan=FaultPlan(seed=1).crash("stream:commit", index=2),
    )
    for epoch in world.epochs:
        server.publish(epoch.delta)
    try:
        server.drain()
    except InjectedFault:
        print("ingest crashed committing epoch 3")

    version = server.versions.current
    fresh = freshness_report(
        version.result.truths,
        served_epoch=version.version_id,
        current_epoch=world.current_epoch,
        served_truth=world.truth_at(version.version_id),
        current_truth=world.truth_at(world.current_epoch),
    )
    print(
        f"serving stays on committed epoch {version.version_id} "
        f"(published head: epoch {world.current_epoch})"
    )
    print(
        f"honest staleness: lag={fresh.lag_epochs} epochs, "
        f"{fresh.stale_items} stale items, "
        f"f1 {fresh.vs_served.f1:.3f} vs its own epoch but "
        f"{fresh.vs_current.f1:.3f} vs the world as it is now"
    )
    assert fresh.lag_epochs == world.current_epoch - version.version_id

    server.fault_plan = None  # the crash was transient infrastructure
    server.drain()
    print(
        f"healed: serving caught up to epoch "
        f"{server.versions.current.version_id}, lag 0"
    )
    assert server.versions.current.version_id == world.current_epoch


def main() -> int:
    drift_through_pipeline()
    print()
    falling_behind()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
