"""Scenario runs: moving truth, copying sources, a multi-tenant mix.

Each function builds a seeded scenario world, runs it through the
stack it exercises and returns a report whose ``to_json_dict`` is a
pure function of the scenario config (timing lives only in
``wall_seconds``), so two same-seed runs serialize byte-identically.
Only :func:`run_drift` needs a pipeline — it serves through
:meth:`KnowledgeBaseConstructionPipeline.serve`, and the served bytes
depend on that pipeline's fusion settings; :func:`run_copying` and
:func:`run_tenants` take the metrics registry (and, for tenants, the
serving knobs) they use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.evalx.freshness import FreshnessReport, freshness_report
from repro.evalx.tables import format_ratio, render_table
from repro.faults import RetryPolicy
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.serving.tenancy import TenantManager
from repro.synth.copying import CopyingConfig, generate_copying_world
from repro.synth.drift import DriftConfig, DriftingWorld
from repro.synth.tenants import TenantMixConfig

__all__ = [
    "CopyingModeRow",
    "CopyingScenarioReport",
    "DriftEpochRow",
    "DriftScenarioReport",
    "run_copying",
    "run_drift",
    "run_tenants",
]


@dataclass(slots=True)
class DriftEpochRow:
    """One epoch of a drift scenario as the report records it."""

    epoch: int
    # The epoch the served KB version corresponds to after this
    # epoch's delta was published and drained (== epoch unless the
    # drain crashed and left serving on an earlier committed version).
    served_epoch: int
    delta_added: int
    delta_retracted: int
    births: int
    deaths: int
    renames: int
    value_changes: int
    freshness: FreshnessReport

    def to_json_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "served_epoch": self.served_epoch,
            "delta_added": self.delta_added,
            "delta_retracted": self.delta_retracted,
            "births": self.births,
            "deaths": self.deaths,
            "renames": self.renames,
            "value_changes": self.value_changes,
            "freshness": self.freshness.to_json_dict(),
        }


@dataclass(slots=True)
class DriftScenarioReport:
    """Everything one :func:`run_drift` call produced.

    ``to_json_dict`` is a pure function of the drift config (timing
    lives only in ``wall_seconds``), so two same-seed runs serialize
    byte-identically — the end-to-end determinism contract the
    integration tests pin.
    """

    seed: int
    epochs: int
    base_claims: int
    final_version: int
    rows: list[DriftEpochRow] = field(default_factory=list)
    wall_seconds: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "epochs": self.epochs,
            "base_claims": self.base_claims,
            "final_version": self.final_version,
            "rows": [row.to_json_dict() for row in self.rows],
        }

    def table(self) -> str:
        headers = [
            "epoch", "served", "lag", "+claims", "-claims",
            "f1@served", "f1@current", "staleness",
        ]
        rows = [
            [
                row.epoch,
                row.served_epoch,
                row.freshness.lag_epochs,
                row.delta_added,
                row.delta_retracted,
                format_ratio(row.freshness.vs_served.f1),
                format_ratio(row.freshness.vs_current.f1),
                format_ratio(row.freshness.staleness),
            ]
            for row in self.rows
        ]
        return render_table(headers, rows, title="Drift scenario (freshness per epoch)")


@dataclass(slots=True)
class CopyingModeRow:
    """One fusion mode's outcome on a copying world."""

    mode: str
    precision: float
    recall: float
    suppressed: int
    leaked: int

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "precision": self.precision,
            "recall": self.recall,
            "suppressed": self.suppressed,
            "leaked": self.leaked,
        }


@dataclass(slots=True)
class CopyingScenarioReport:
    """Everything one :func:`run_copying` call produced."""

    seed: int
    claims: int
    copied_errors: int
    rows: list[CopyingModeRow] = field(default_factory=list)
    wall_seconds: float = 0.0

    def mode(self, name: str) -> CopyingModeRow:
        for row in self.rows:
            if row.mode == name:
                return row
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "claims": self.claims,
            "copied_errors": self.copied_errors,
            "rows": [row.to_json_dict() for row in self.rows],
        }

    def table(self) -> str:
        headers = [
            "mode", "precision", "recall", "suppressed", "leaked",
        ]
        rows = [
            [
                row.mode,
                format_ratio(row.precision),
                format_ratio(row.recall),
                row.suppressed,
                row.leaked,
            ]
            for row in self.rows
        ]
        return render_table(
            headers, rows,
            title=(
                f"Copied-error suppression "
                f"({self.copied_errors} copied errors)"
            ),
        )


def run_drift(
    pipeline, config: DriftConfig | None = None
) -> DriftScenarioReport:
    """Drive ``pipeline``'s serving with a drifting world's delta stream.

    Builds a seeded :class:`~repro.synth.drift.DriftingWorld`, primes
    the pipeline's incremental engine on its base corpus, then
    publishes each epoch's :class:`ClaimDelta` through
    :meth:`~repro.core.pipeline.KnowledgeBaseConstructionPipeline.serve`'s
    event stream and drains it to a committed KB version.  Every epoch
    is scored with :func:`~repro.evalx.freshness.freshness_report`
    against both the truth of the *served* epoch and the *current*
    truth, so the report separates fusion quality from staleness.
    Metrics land on ``pipeline.metrics``.
    """
    cfg = config or DriftConfig()
    started = time.perf_counter()
    world = DriftingWorld(cfg)
    metrics = pipeline.metrics
    metrics.counter("drift_runs_total").inc()
    metrics.counter("drift_base_claims_total").inc(len(world.base))

    # The drift corpus replaces whatever the last run() left: the
    # engine must be primed fresh on the drifting world's base.
    pipeline._reset_incremental()
    pipeline.all_triples = list(world.base)
    server = pipeline.serve()

    report = DriftScenarioReport(
        seed=cfg.seed,
        epochs=cfg.epochs,
        base_claims=len(world.base),
        final_version=0,
    )
    for index, epoch in enumerate(world.epochs, start=1):
        truth = epoch.truth
        metrics.counter("drift_epochs_total").inc()
        metrics.counter("drift_births_total").inc(len(truth.born))
        metrics.counter("drift_deaths_total").inc(len(truth.died))
        metrics.counter("drift_renames_total").inc(len(truth.renamed))
        metrics.counter("drift_value_changes_total").inc(
            len(truth.changed)
        )
        server.publish(epoch.delta)
        server.drain()
        version = server.versions.current
        # Committed deltas, not the engine's sequence: that one runs
        # ahead when an apply succeeded and its commit crashed.
        served_epoch = version.version_id
        fresh = freshness_report(
            version.result.truths,
            served_epoch=served_epoch,
            current_epoch=index,
            served_truth=world.truth_at(served_epoch),
            current_truth=world.truth_at(index),
        )
        metrics.gauge("drift_freshness_lag_epochs").set(fresh.lag_epochs)
        metrics.gauge("drift_staleness_ratio").set(fresh.staleness)
        metrics.histogram("drift_epoch_delta_claims").observe(
            len(epoch.delta.added) + len(epoch.delta.retracted)
        )
        report.rows.append(
            DriftEpochRow(
                epoch=index,
                served_epoch=served_epoch,
                delta_added=len(epoch.delta.added),
                delta_retracted=len(epoch.delta.retracted),
                births=len(truth.born),
                deaths=len(truth.died),
                renames=len(truth.renamed),
                value_changes=len(truth.changed),
                freshness=fresh,
            )
        )
    report.final_version = server.versions.current.version_id
    report.wall_seconds = time.perf_counter() - started
    return report


def run_copying(
    config: CopyingConfig | None = None, *, metrics
) -> CopyingScenarioReport:
    """Fuse a copying world with correlations off, then on.

    Builds a seeded :class:`~repro.synth.copying.CopyingWorld`
    (copier sources replicating a victim's claims, errors included)
    and fuses its claims twice — correlation-blind and
    correlation-aware — scoring each mode's copied-error suppression
    against the world's gold standard.  The correlation machinery
    earns its keep when the aware mode suppresses more copied errors
    than the blind one.  ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`) receives the ``copying_*``
    series.
    """
    cfg = config or CopyingConfig()
    started = time.perf_counter()
    world = generate_copying_world(cfg)
    metrics.counter("copying_runs_total").inc()
    metrics.counter("copying_claims_total").inc(len(world.claims))
    metrics.counter("copying_copied_errors_total").inc(
        world.total_copied_errors()
    )

    report = CopyingScenarioReport(
        seed=cfg.seed,
        claims=len(world.claims),
        copied_errors=world.total_copied_errors(),
    )
    for mode, correlated in (
        ("correlation-blind", False),
        ("correlation-aware", True),
    ):
        fusion = KnowledgeFusion(
            tolerance=0.0,
            use_source_correlations=correlated,
            use_extractor_correlations=False,
            use_confidence=False,
        )
        result = fusion.fuse(world.claims)
        suppressed, leaked = world.copied_error_outcome(result.truths)
        metrics.counter("copying_suppressed_total", mode=mode).inc(
            suppressed
        )
        metrics.counter("copying_leaked_total", mode=mode).inc(leaked)
        report.rows.append(
            CopyingModeRow(
                mode=mode,
                precision=world.precision_of(result.truths),
                recall=world.recall_of(result.truths),
                suppressed=suppressed,
                leaked=leaked,
            )
        )
    report.wall_seconds = time.perf_counter() - started
    return report


def run_tenants(
    mix: TenantMixConfig | None = None,
    *,
    metrics,
    capacity: int = 1024,
    retry: RetryPolicy | None = None,
    checkpoint_root: str | None = None,
):
    """Ingest and serve a multi-tenant mix on one shared runtime.

    Expands the mix into per-tenant workloads
    (:func:`~repro.synth.tenants.build_tenant_workload`), hosts one
    isolated serving stack per tenant behind a
    :class:`~repro.serving.tenancy.TenantManager` — per-tenant labels
    on ``metrics``, event logs bounded by ``capacity``, consumers
    retrying under ``retry``, checkpoints under
    ``checkpoint_root/<tenant>`` when one is given — drains the fleet
    fair-share, and scores every tenant against its own ground truth.
    Returns the manager's
    :class:`~repro.serving.tenancy.TenantMixReport`.
    """
    cfg = mix or TenantMixConfig()
    started = time.perf_counter()
    metrics.counter("tenant_runs_total").inc()
    manager = TenantManager.from_mix(
        cfg,
        metrics=metrics,
        capacity=capacity,
        retry=retry,
        checkpoint_root=checkpoint_root,
    )
    rounds = manager.drain_fair()
    if checkpoint_root is not None:
        manager.checkpoint_all()
    report = manager.eval_rows(rounds=rounds)
    report.wall_seconds = time.perf_counter() - started
    return report
