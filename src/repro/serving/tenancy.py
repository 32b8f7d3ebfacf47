"""Multi-tenant serving: N isolated stacks behind one runtime.

The paper's system is shared infrastructure — "millions of users"
means many independent knowledge worlds ingested and served by one
operator.  The tenancy model here is *share the runtime, share nothing
else*:

* **Per-tenant stack** — every tenant owns a full
  ``engine → EventLog → KBServer → VersionedKB`` chain
  (:class:`TenantRuntime`), and the tenant's server is its log's one
  consumer.  No log, dead-letter list, fence, or version object is
  shared, so there is no cross-tenant state to corrupt.
* **Per-tenant metrics** — each stack writes through a
  :meth:`~repro.obs.metrics.MetricsRegistry.labeled` view, stamping
  ``tenant=<name>`` on every ``stream_*`` / ``serving_*`` series in
  the one shared registry
  (:func:`repro.obs.schema.validate_tenant_metrics` checks coverage).
* **Per-tenant durable state** — checkpoints live under
  ``<root>/<tenant>/``; the pid-scoped temp sweep in
  :mod:`repro.core.checkpoint` keeps even a *shared* directory safe,
  the per-tenant subdirectory keeps it tidy.
* **Fair-share drain** — :meth:`TenantManager.drain_fair` gives every
  live tenant the same per-round publish/step budget, in stable name
  order.  A tenant that sheds load (backpressure) or throws
  (injected crash, poison storm) spends *its own* round doing so;
  its neighbors' budgets are untouched.
* **Failure isolation** — a fault crossing :meth:`TenantRuntime.pump`
  is recorded on that tenant and the loop moves on (crash-restart
  semantics: at-least-once redelivery plus the dedup fence make the
  retried step safe).  A tenant that faults ``fault_limit`` times
  without progressing is halted — a poison storm degrades one
  tenant, never the fleet.

The isolation contract this buys (chaos-tested): a tenant's committed
versions in a mix — even a mix where a *neighbor* is being crashed
and poisoned — are byte-identical to the versions of its solo run,
because every input to its stack is tenant-local and deterministic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.checkpoint import CheckpointStore
from repro.errors import BackpressureError, ServingError
from repro.evalx.freshness import freshness_report, truth_metrics
from repro.evalx.tables import format_ratio, render_table
from repro.faults import RetryPolicy
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.rdf.store import TripleStore
from repro.serving.server import KBServer
from repro.serving.stream import EventLog
from repro.synth.tenants import (
    TenantMixConfig,
    TenantSpec,
    TenantWorkload,
    build_tenant_workload,
)

__all__ = [
    "TenantEvalRow",
    "TenantManager",
    "TenantMixReport",
    "TenantRuntime",
    "tenant_fingerprint",
]

# Events one tenant may consume per fair-share turn, after its one
# publish: two against one, so a backlog shrinks every turn.
STEPS_PER_TURN = 2

# Fusion rounds of every tenant's engine.
MAX_ITERATIONS = 8


def tenant_fingerprint(spec: TenantSpec) -> str:
    """Checkpoint fingerprint of one tenant's world.

    Dataclass ``repr`` covers every value field of the spec, so any
    change to the tenant's generator parameters invalidates its
    checkpoints — the same rule
    :func:`repro.core.checkpoint.config_fingerprint` applies to
    pipeline configs.
    """
    return hashlib.sha256(repr(spec).encode()).hexdigest()


class TenantRuntime:
    """One tenant's private serving stack plus its drain cursor.

    Everything the stack touches is tenant-local: the engine and its
    store are primed on the tenant's own base corpus, the event log
    and the server's dead-letter list are fresh, and ``metrics`` is
    expected to be a tenant-labeled view (the manager passes
    ``registry.labeled(tenant=name)``).  ``fault_plan`` is the
    tenant's own chaos plan — fault state (burned attempts) is as
    private as everything else.
    """

    def __init__(
        self,
        workload: TenantWorkload,
        *,
        metrics=None,
        capacity: int = 1024,
        retry: RetryPolicy | None = None,
        fault_plan=None,
        checkpoint_dir: str | Path | None = None,
    ) -> None:
        self.workload = workload
        self.name = workload.spec.name
        self.metrics = metrics
        store = TripleStore()
        store.add_all(workload.base)
        fusion = KnowledgeFusion(
            tolerance=0.0,
            max_iterations=MAX_ITERATIONS,
            metrics=metrics,
            fault_plan=fault_plan,
        )
        engine = fusion.begin_incremental(store)
        self.server = KBServer(
            engine,
            EventLog(capacity, metrics=metrics),
            retry=retry,
            metrics=metrics,
            fault_plan=fault_plan,
        )
        self.pending: list = list(workload.deltas)
        self._next_publish = 0
        self.deferred_publishes = 0
        self.fault_count = 0
        self.last_fault: str | None = None
        self.halted: str | None = None
        self.checkpoints: CheckpointStore | None = None
        if checkpoint_dir is not None:
            self.checkpoints = CheckpointStore(
                checkpoint_dir,
                tenant_fingerprint(workload.spec),
                metrics=metrics,
            )

    # ------------------------------------------------------------------
    @property
    def published(self) -> int:
        """Deltas published so far (of ``len(pending)`` total)."""
        return self._next_publish

    @property
    def finished(self) -> bool:
        """Nothing left to publish and the log is fully consumed."""
        return (
            self._next_publish >= len(self.pending)
            and self.server.log.lag == 0
        )

    def pump(self) -> bool:
        """One fair-share turn: publish one delta, consume up to
        :data:`STEPS_PER_TURN` events.

        Returns whether any progress happened (a publish or a
        consumed event).  A publish shed by backpressure is deferred
        — counted, not lost; the consume below relieves the backlog
        and the next turn retries.  Exceptions (injected crashes
        escaping :meth:`KBServer.step`) propagate to the caller's
        isolation boundary; the stack is consistent at every such
        point by the serving crash contract.
        """
        progress = False
        if self._next_publish < len(self.pending):
            try:
                self.server.publish(self.pending[self._next_publish])
                self._next_publish += 1
                progress = True
            except BackpressureError:
                self.deferred_publishes += 1
                self._count("tenant_publish_deferred_total")
        for _ in range(STEPS_PER_TURN):
            if self.server.step() is None:
                break
            progress = True
        return progress

    def checkpoint(self) -> Path | None:
        """Persist this tenant's serving position under its directory.

        The payload is the durable serving cursor (committed version,
        offset, engine sequence) — enough for an operator to audit
        where each tenant stopped, and shaped like every other stage
        checkpoint so the shared-root hygiene rules apply.
        """
        if self.checkpoints is None:
            return None
        version = self.server.versions.current
        return self.checkpoints.save(
            "serving",
            {
                "tenant": self.name,
                "version_id": version.version_id,
                "offset": version.offset,
                "sequence": version.sequence,
                "fused_items": len(version.result.truths),
            },
        )

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()


@dataclass(slots=True)
class TenantEvalRow:
    """One tenant's post-drain evaluation."""

    name: str
    kind: str
    seed: int
    base_claims: int
    deltas: int
    published: int
    applied_events: int
    version_id: int
    poisoned: int
    quarantined_held: int
    deferred_publishes: int
    halted: str | None
    precision: float
    recall: float
    f1: float
    # Drift tenants only.
    freshness_lag: int | None = None
    staleness: float | None = None
    # Copying tenants only.
    suppressed: int | None = None
    leaked: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "seed": self.seed,
            "base_claims": self.base_claims,
            "deltas": self.deltas,
            "published": self.published,
            "applied_events": self.applied_events,
            "version_id": self.version_id,
            "poisoned": self.poisoned,
            "quarantined_held": self.quarantined_held,
            "deferred_publishes": self.deferred_publishes,
            "halted": self.halted,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "freshness_lag": self.freshness_lag,
            "staleness": self.staleness,
            "suppressed": self.suppressed,
            "leaked": self.leaked,
        }


@dataclass(slots=True)
class TenantMixReport:
    """Everything one multi-tenant drain produced.

    ``to_json_dict`` is a pure function of the mix config (timing
    lives only in ``wall_seconds``), the same determinism contract
    every other scenario report honors.
    """

    tenants: int
    rounds: int
    rows: list[TenantEvalRow] = field(default_factory=list)
    wall_seconds: float = 0.0

    def row(self, name: str) -> TenantEvalRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "tenants": self.tenants,
            "rounds": self.rounds,
            "rows": [row.to_json_dict() for row in self.rows],
        }

    def table(self) -> str:
        headers = [
            "tenant", "kind", "claims", "deltas", "version", "f1",
            "lag", "supp", "leak", "poison", "held",
        ]
        rows = [
            [
                row.name,
                row.kind,
                row.base_claims,
                f"{row.published}/{row.deltas}",
                row.version_id,
                format_ratio(row.f1),
                "-" if row.freshness_lag is None else row.freshness_lag,
                "-" if row.suppressed is None else row.suppressed,
                "-" if row.leaked is None else row.leaked,
                row.poisoned,
                row.quarantined_held,
            ]
            for row in self.rows
        ]
        return render_table(
            headers, rows,
            title=f"Tenant mix ({self.tenants} tenants, "
                  f"{self.rounds} rounds)",
        )


class TenantManager:
    """N isolated tenant stacks drained by one fair-share loop."""

    def __init__(
        self,
        workloads: list[TenantWorkload],
        *,
        metrics=None,
        capacity: int = 1024,
        retry: RetryPolicy | None = None,
        fault_plans: dict | None = None,
        checkpoint_root: str | Path | None = None,
        fault_limit: int = 32,
    ) -> None:
        if not workloads:
            raise ServingError("a tenant manager needs at least one tenant")
        self.metrics = metrics
        self.fault_limit = fault_limit
        self.tenants: dict[str, TenantRuntime] = {}
        for workload in workloads:
            name = workload.spec.name
            if name in self.tenants:
                raise ServingError(f"duplicate tenant name {name!r}")
            self.tenants[name] = TenantRuntime(
                workload,
                metrics=(
                    metrics.labeled(tenant=name)
                    if metrics is not None
                    else None
                ),
                capacity=capacity,
                retry=retry,
                fault_plan=(fault_plans or {}).get(name),
                checkpoint_dir=(
                    Path(checkpoint_root) / name
                    if checkpoint_root is not None
                    else None
                ),
            )
        if metrics is not None:
            metrics.gauge("tenant_count").set(len(self.tenants))

    @classmethod
    def from_mix(
        cls, mix: TenantMixConfig, **kwargs
    ) -> "TenantManager":
        """Expand a mix config into workloads and host them."""
        return cls(
            [build_tenant_workload(spec) for spec in mix.specs()],
            **kwargs,
        )

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        return sorted(self.tenants)

    def tenant(self, name: str) -> TenantRuntime:
        runtime = self.tenants.get(name)
        if runtime is None:
            raise ServingError(f"unknown tenant {name!r}")
        return runtime

    def drain_fair(self, *, max_rounds: int | None = None) -> int:
        """Round-robin every live tenant to completion; returns rounds.

        Each round walks tenants in stable name order, giving each one
        :meth:`TenantRuntime.pump` turn (one publish + up to
        :data:`STEPS_PER_TURN` consumed events).  A tenant that throws is
        caught *at its own boundary*: the fault is recorded on that
        tenant, everyone else's round proceeds.  Repeated faulting
        without progress (``fault_limit``) halts just that tenant.
        The loop ends when every tenant is finished or halted (or
        ``max_rounds`` is hit — a backstop for pathological plans).
        """
        rounds = 0
        while max_rounds is None or rounds < max_rounds:
            live = [
                name
                for name in self.names()
                if self.tenants[name].halted is None
                and not self.tenants[name].finished
            ]
            if not live:
                break
            rounds += 1
            for name in live:
                runtime = self.tenants[name]
                try:
                    progressed = runtime.pump()
                except Exception as exc:  # noqa: BLE001 — tenant boundary
                    runtime.fault_count += 1
                    runtime.last_fault = f"{type(exc).__name__}: {exc}"
                    if runtime.metrics is not None:
                        runtime.metrics.counter(
                            "tenant_faults_total"
                        ).inc()
                    if runtime.fault_count >= self.fault_limit:
                        runtime.halted = (
                            f"fault limit {self.fault_limit} reached; "
                            f"last: {runtime.last_fault}"
                        )
                    continue
                if progressed:
                    runtime.fault_count = 0
        if self.metrics is not None:
            self.metrics.counter("tenant_rounds_total").inc(rounds)
        return rounds

    def checkpoint_all(self) -> dict[str, Path]:
        """Checkpoint every tenant under its own subdirectory."""
        return {
            name: path
            for name in self.names()
            if (path := self.tenants[name].checkpoint()) is not None
        }

    # ------------------------------------------------------------------
    def eval_rows(self, *, rounds: int = 0) -> TenantMixReport:
        """Score every tenant's served state against its own truth."""
        report = TenantMixReport(tenants=len(self.tenants), rounds=rounds)
        for name in self.names():
            report.rows.append(self._eval_one(self.tenants[name]))
        return report

    def _eval_one(self, runtime: TenantRuntime) -> TenantEvalRow:
        workload = runtime.workload
        spec = workload.spec
        server = runtime.server
        version = server.versions.current
        status = server.status()
        decided = version.result.truths
        quality = truth_metrics(decided, workload.truth)
        row = TenantEvalRow(
            name=runtime.name,
            kind=spec.kind,
            seed=spec.seed,
            base_claims=len(workload.base),
            deltas=len(workload.deltas),
            published=runtime.published,
            applied_events=status.applied_events,
            version_id=version.version_id,
            poisoned=status.poisoned,
            quarantined_held=status.quarantined_held,
            deferred_publishes=runtime.deferred_publishes,
            halted=runtime.halted,
            precision=quality.precision,
            recall=quality.recall,
            f1=quality.f1,
        )
        if workload.drift_world is not None:
            world = workload.drift_world
            served_epoch = min(version.version_id, world.current_epoch)
            fresh = freshness_report(
                decided,
                served_epoch=served_epoch,
                current_epoch=world.current_epoch,
                served_truth=world.truth_at(served_epoch),
                current_truth=world.truth_at(world.current_epoch),
            )
            row.freshness_lag = fresh.lag_epochs
            row.staleness = fresh.staleness
        if workload.copying_world is not None:
            suppressed, leaked = (
                workload.copying_world.copied_error_outcome(decided)
            )
            row.suppressed = suppressed
            row.leaked = leaked
        return row
