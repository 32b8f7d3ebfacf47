"""The end-to-end KB-construction pipeline (Figure 1).

Orchestrates both phases of the framework over a ground-truth world:

Knowledge extraction
    1.  build KB snapshots (Freebase + DBpedia) and extract/combine
        their attributes and claims;
    2.  generate the query stream and extract credible attributes;
    3.  form per-class seed sets from the two accurate sources;
    4.  generate websites and run the DOM extractor (Algorithm 1);
    5.  generate Web texts and run the seed-driven text extractor;
    6.  resolve attribute misspellings/synonyms across extractors;
    7.  assign unified confidence scores to every triple.

Knowledge fusion
    8.  fuse all claims with the combined method (multi-truth +
        hierarchy + correlations + confidence);
    9.  evaluate against the world (gold standard by construction);
    10. augment the Freebase snapshot with the fused knowledge.

Extraction stages
    The four extractors run in line, in pipeline order; each stage body
    is a module-level function of the world and its config that
    measures its own work seconds.

Fault tolerance
    The fusion framework is meant to run over noisy Web-scale inputs
    where individual extractors crash, hang or emit garbage.  Three
    mechanisms keep a run alive (all deterministic, all testable
    without wall-clock waits):

    * **Stage isolation** — each extraction stage runs inside a guard:
      an exception (or a deadline overrun against
      ``PipelineConfig.stage_timeout``) marks the stage ``degraded`` in
      ``PipelineReport.health`` and the pipeline continues with the
      remaining sources.  If fewer than ``min_sources`` extractor
      outputs survive, the run aborts with :class:`PipelineError` —
      fusing one source is no fusion at all.
    * **Record quarantine** — malformed input records (and records
      corrupted by an injected fault plan) are diverted to a
      :class:`~repro.core.quarantine.Quarantine` sink with per-source
      counts and sampled examples instead of crashing a stage.
    * **Checkpoint/resume** — with ``checkpoint_dir`` set, extraction
      and claim-preparation outputs are spilled via
      :class:`~repro.core.checkpoint.CheckpointStore`;
      ``run(resume=True)`` restores completed stages (fingerprinted
      against the data-determining config, so a changed seed or knob
      invalidates old checkpoints).  Degraded runs never write
      checkpoints — resume only ever restores healthy state.

    ``PipelineConfig.retry`` and ``fault_plan`` ride through to the
    sharded-fusion MapReduce job, so transient worker crashes during
    fusion are retried with deterministic backoff (see
    :mod:`repro.mapreduce.engine` and :mod:`repro.faults`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.core.augmentation import AugmentationReport, augment_kb
from repro.core.checkpoint import CheckpointStore, config_fingerprint
from repro.core.quarantine import Quarantine, guard_records
from repro.errors import PipelineError, StageTimeoutError
from repro.faults import FaultPlan
from repro.obs import MetricsRegistry, MetricsSnapshot, SpanTracer
from repro.textproc.memo import clear_similarity_caches, publish_cache_metrics
from repro.core.confidence import ConfidenceConfig, ConfidenceScorer
from repro.entity.blocking import BlockingStats
from repro.entity.discovery import (
    JointEntityResolver,
    ResolutionOutcome,
    resolve_mention_triples,
)
from repro.entity.linking import EntityLinker
from repro.entity.resolution import (
    AttributeResolver,
    apply_resolution,
    build_value_profiles,
)
from repro.evalx.freshness import FreshnessReport, freshness_report
from repro.evalx.metrics import (
    TruthDiscoveryReport,
    evaluate_fusion,
    remap_subjects,
)
from repro.evalx.tables import format_ratio, render_table
from repro.extract.base import ExtractorOutput
from repro.extract.dom import DomExtractorConfig, DomTreeExtractor
from repro.extract.kb import KbExtractor, combine_kb_outputs
from repro.extract.querystream import (
    QueryStreamConfig,
    QueryStreamExtractor,
    QueryStreamStats,
)
from repro.extract.seeds import SeedSet, build_seed_sets
from repro.extract.webtext import WebTextExtractor, WebTextExtractorConfig
from repro.fusion.base import ClaimSet, FusionResult
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.mapreduce.engine import RetryPolicy
from repro.synth.copying import CopyingConfig, generate_copying_world
from repro.synth.drift import DriftConfig, DriftingWorld
from repro.synth.tenants import TenantMixConfig
from repro.synth.kb_snapshots import KbPairConfig, build_kb_pair
from repro.synth.querylog import QueryLogConfig, QueryRecord, generate_query_log
from repro.synth.websites import WebPage, WebsiteConfig, generate_websites
from repro.synth.webtext import TextDocument, WebTextConfig, generate_webtext
from repro.synth.world import GroundTruthWorld, WorldConfig

# The four extraction stage names, in pipeline order (used to filter
# report fragments into the extraction checkpoint).
EXTRACTION_STAGES = (
    "kb-extraction",
    "query-stream",
    "dom-extraction",
    "webtext-extraction",
)


@dataclass(slots=True)
class PipelineConfig:
    """All knobs of the end-to-end run."""

    world: WorldConfig = field(default_factory=WorldConfig)
    kb_pair: KbPairConfig = field(default_factory=KbPairConfig)
    querylog: QueryLogConfig = field(default_factory=QueryLogConfig)
    querystream: QueryStreamConfig = field(default_factory=QueryStreamConfig)
    websites: WebsiteConfig = field(default_factory=WebsiteConfig)
    webtext: WebTextConfig = field(default_factory=WebTextConfig)
    dom: DomExtractorConfig = field(default_factory=DomExtractorConfig)
    webtext_extractor: WebTextExtractorConfig = field(
        default_factory=WebTextExtractorConfig
    )
    confidence: ConfidenceConfig = field(default_factory=ConfidenceConfig)
    seed_min_support: int = 1
    # New-entity creation (Sec. 3.1): when on, Set_E is still the
    # Freebase snapshot's entity sets, but pages naming unknown
    # entities harvest mention facts, and joint resolution links or
    # clusters them into new entities before fusion.
    discover_new_entities: bool = False
    # Functional/non-functional handling: "schema" uses the world
    # catalogs' functional flags; "estimated" derives functionality
    # degrees from the claims (repro.fusion.functionality) — the
    # unsupervised option the paper's Sec. 1 calls for.
    functionality_source: str = "schema"
    use_hierarchy: bool = True
    use_source_correlations: bool = True
    use_extractor_correlations: bool = True
    use_confidence: bool = True
    resolve_attributes: bool = True
    # Fusion sharding: >= 2 runs the core fuse per connected component
    # of the claim graph (repro.fusion.sharding) as that many
    # partitions of an in-process MapReduce job — the path ``retry``
    # and ``fault_plan`` act on.  Truths are identical to the unsharded
    # run; beliefs match bit-for-bit at tolerance 0 (see the sharding
    # module's early-exit caveat).
    fusion_parallelism: int = 1
    # Convergence tolerance forwarded to the multi-truth core; None
    # keeps the core's default.  Set 0.0 to pin the iteration count —
    # the regime in which run_incremental() is byte-identical to a
    # full re-fusion.
    fusion_tolerance: float | None = None
    # -- Fault tolerance ------------------------------------------------
    # Retry policy for the sharded-fusion MapReduce job (None keeps the
    # legacy single-attempt behaviour).
    retry: RetryPolicy | None = None
    # Deterministic fault plan (repro.faults) injected into extraction
    # stage guards, record validation and the fusion job.  Testing
    # only; None in production runs.
    fault_plan: FaultPlan | None = None
    # Deadline in seconds for each extraction stage (measured work time
    # plus any injected slow-call seconds); overruns degrade the stage.
    stage_timeout: float | None = None
    # Minimum number of healthy extractor outputs required to proceed
    # to fusion; fewer raises PipelineError.
    min_sources: int = 1
    # Quarantine capacity: total diverted records above this raise
    # QuarantineOverflowError (losing most of a feed silently would be
    # worse than failing).
    quarantine_capacity: int = 1000
    # Directory for stage checkpoints (None disables checkpointing).
    checkpoint_dir: str | None = None
    # -- Storage --------------------------------------------------------
    # Claim-store backend behind the incremental engine's TripleStore:
    # "memory" keeps the original dict-resident store; "segment" spills
    # claims to mmapped LSM-style segment files under storage_dir, so
    # the corpus is disk-bound instead of RAM-bound.  Fusion verdicts
    # are byte-identical either way (the backends share one claim
    # iteration order; see repro.rdf.backend).
    storage_backend: str = "memory"
    # Segment-file directory, required when storage_backend="segment".
    # The directory is owned by the run lineage: reopening it primes
    # from the last flushed state (adds of already-present claims
    # deduplicate away).
    storage_dir: str | None = None
    # Memtable entries that trigger an automatic segment flush.
    memtable_limit: int = 8192
    # -- Serving --------------------------------------------------------
    # Event-log backlog bound for Pipeline.serve(): once the serving
    # consumer lags this many events behind the head, publishes are
    # rejected with BackpressureError (explicit load shedding; the log
    # never drops silently).
    serving_log_capacity: int = 1024


@dataclass(slots=True)
class StageTiming:
    """Wall-clock seconds of one pipeline stage."""

    stage: str
    seconds: float
    detail: str = ""


@dataclass(slots=True)
class PipelineHealth:
    """Fault-tolerance accounting of one run (JSON-ready via to_dict)."""

    # "ok" or "degraded" (at least one stage was isolated or skipped).
    status: str = "ok"
    # stage name -> reason it was degraded/skipped.
    degraded: dict[str, str] = field(default_factory=dict)
    # Extractor outputs that survived extraction (sorted source ids).
    active_sources: list[str] = field(default_factory=list)
    min_sources: int = 1
    # Stages restored from a checkpoint instead of recomputed.
    resumed_stages: list[str] = field(default_factory=list)
    # Quarantine.to_dict() snapshot: total / per-source counts / samples.
    quarantined: dict = field(default_factory=dict)
    # Fusion-job retry counters (attempts/retries/timed_out_tasks) when
    # a retry policy or fault plan was active.
    retry: dict = field(default_factory=dict)

    def mark_degraded(self, stage: str, reason: str) -> None:
        self.status = "degraded"
        self.degraded.setdefault(stage, reason)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "degraded": dict(sorted(self.degraded.items())),
            "active_sources": list(self.active_sources),
            "min_sources": self.min_sources,
            "resumed_stages": list(self.resumed_stages),
            "quarantined": self.quarantined
            or {"total": 0, "counts": {}, "samples": {}},
            "retry": dict(self.retry),
        }


@dataclass(slots=True)
class PipelineReport:
    """Everything an end-to-end run produced."""

    timings: list[StageTiming] = field(default_factory=list)
    seed_sizes: dict[str, int] = field(default_factory=dict)
    query_stats: QueryStreamStats | None = None
    attribute_counts: dict[str, dict[str, int]] = field(default_factory=dict)
    triple_counts: dict[str, int] = field(default_factory=dict)
    fusion_result: FusionResult | None = None
    fusion_report: TruthDiscoveryReport | None = None
    augmentation: AugmentationReport | None = None
    entity_resolution: ResolutionOutcome | None = None
    # Wall-clock seconds of the fuse call alone (the fusion stage
    # timing also covers claim-set assembly and oracle construction).
    fusion_wall: float = 0.0
    # Connected-component accounting of a sharded fusion run (empty on
    # serial fusion): components / workers / executor / largest_claims
    # / component_claims.
    fusion_shards: dict = field(default_factory=dict)
    # Degradation / quarantine / retry / resume accounting.
    health: PipelineHealth = field(default_factory=PipelineHealth)
    # True end-to-end wall clock of run(), measured around the whole
    # thing (the stage timings leave out what runs between stages).
    wall_seconds: float = 0.0
    # Metric snapshot of the run (counters/gauges/histograms across
    # every instrumented layer); None only on hand-built reports.
    metrics: MetricsSnapshot | None = None
    # JSON span-trace tree of the run (repro.obs.trace shape).
    trace: dict | None = None

    def cumulative_stage_seconds(self) -> float:
        """Summed per-stage work seconds."""
        return sum(timing.seconds for timing in self.timings)

    def total_seconds(self) -> float:
        """True end-to-end seconds of the run.

        ``run()`` measures the wall clock around the whole run; the
        per-stage sum is only a fallback for hand-built reports.
        """
        return self.wall_seconds or self.cumulative_stage_seconds()

    def to_json_dict(self) -> dict:
        """JSON-serializable report summary (``json.dumps``-ready).

        Includes both timing fields (non-deterministic wall clock) and
        result fields; chaos determinism checks compare the subset that
        is a pure function of config + seeds: ``seed_sizes``,
        ``attribute_counts``, ``triple_counts``, ``fused_items`` and
        ``health``.
        """
        return {
            "timings": [
                {
                    "stage": timing.stage,
                    "seconds": timing.seconds,
                    "detail": timing.detail,
                }
                for timing in self.timings
            ],
            "seed_sizes": dict(sorted(self.seed_sizes.items())),
            "attribute_counts": {
                source: dict(sorted(counts.items()))
                for source, counts in sorted(self.attribute_counts.items())
            },
            "triple_counts": dict(sorted(self.triple_counts.items())),
            "wall_seconds": self.wall_seconds,
            "cumulative_stage_seconds": self.cumulative_stage_seconds(),
            "fusion_wall": self.fusion_wall,
            "fusion_shards": dict(self.fusion_shards),
            "fused_items": (
                len(self.fusion_result.truths)
                if self.fusion_result is not None
                else None
            ),
            "health": self.health.to_dict(),
        }


@dataclass(slots=True)
class IncrementalReport:
    """Everything one :meth:`run_incremental` call produced.

    ``sequence`` is the engine's delta counter, offset by the sequence
    restored from an ``"incremental"`` checkpoint (so it keeps counting
    across resumed sessions).  ``primed`` marks the call that built the
    engine (the expensive path); ``resumed_from`` names the checkpoint
    stage the claim corpus came from (None when it came from an
    in-memory run).
    """

    outcome: object  # repro.incremental.engine.DeltaOutcome
    fusion_result: FusionResult
    fusion_report: TruthDiscoveryReport
    sequence: int
    primed: bool = False
    resumed_from: str | None = None
    wall_seconds: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "sequence": self.sequence,
            "primed": self.primed,
            "resumed_from": self.resumed_from,
            "wall_seconds": self.wall_seconds,
            "outcome": self.outcome.to_json_dict(),
            "fusion": {
                "items": self.fusion_report.items,
                "precision": self.fusion_report.precision,
                "recall": self.fusion_report.recall,
                "f1": self.fusion_report.f1,
            },
        }


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
    """Everything one :meth:`run_drift` call produced.

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
    """Everything one :meth:`run_copying` call produced."""

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


# ----------------------------------------------------------------------
# Record validators for the quarantine guards: structurally broken
# records (wrong type, empty payload) are diverted, not crashed on.


def _valid_query_record(record: object) -> bool:
    return (
        isinstance(record, QueryRecord)
        and isinstance(record.text, str)
        and bool(record.text.strip())
    )


def _valid_page(record: object) -> bool:
    return (
        isinstance(record, WebPage)
        and isinstance(record.html, str)
        and bool(record.html.strip())
    )


def _valid_document(record: object) -> bool:
    return (
        isinstance(record, TextDocument)
        and isinstance(record.text, str)
        and bool(record.text.strip())
    )


# ----------------------------------------------------------------------
# Extraction stage bodies: functions of (world, config), each measuring
# its own wall time.


def _kb_stage(world: GroundTruthWorld, kb_pair_config: KbPairConfig):
    """Stage 1: build the KB snapshots and extract/combine their claims."""
    started = time.perf_counter()
    freebase, dbpedia = build_kb_pair(world, kb_pair_config)
    freebase_output = KbExtractor(freebase).extract()
    dbpedia_output = KbExtractor(dbpedia).extract()
    kb_output = combine_kb_outputs([freebase_output, dbpedia_output])
    return freebase, dbpedia, kb_output, time.perf_counter() - started


def _querylog_stage(world: GroundTruthWorld, querylog_config: QueryLogConfig):
    """Stage 2a: generate the query stream (extraction needs Set_E)."""
    started = time.perf_counter()
    log = generate_query_log(world, querylog_config)
    return log, time.perf_counter() - started


def _dom_stage(
    entity_index,
    seeds: dict[str, SeedSet],
    dom_config: DomExtractorConfig,
    world: GroundTruthWorld,
    website_config: WebsiteConfig,
    fault_plan: FaultPlan | None = None,
    quarantine_capacity: int = 1000,
):
    """Stage 4: generate websites and run Algorithm 1 over them.

    Pages pass through a record guard before extraction; diverted pages
    land in a stage-local quarantine the caller merges back.
    """
    started = time.perf_counter()
    sites = generate_websites(world, website_config)
    local_quarantine = Quarantine(capacity=quarantine_capacity)
    page_index = 0
    for site in sites:
        page_count = len(site.pages)
        site.pages = guard_records(
            site.pages, _valid_page, local_quarantine, "dom",
            plan=fault_plan, scope="records:dom", start_index=page_index,
        )
        page_index += page_count
    extractor = DomTreeExtractor(entity_index, seeds, dom_config)
    output = extractor.extract(sites)
    return (
        output,
        extractor.mention_classes,
        local_quarantine,
        time.perf_counter() - started,
    )


def _webtext_stage(
    entity_index,
    seeds: dict[str, SeedSet],
    kb_triples,
    world: GroundTruthWorld,
    webtext_config: WebTextConfig,
    extractor_config: WebTextExtractorConfig,
    fault_plan: FaultPlan | None = None,
    quarantine_capacity: int = 1000,
):
    """Stage 5: generate Web texts and run the seed-driven extractor."""
    started = time.perf_counter()
    documents = generate_webtext(world, webtext_config)
    local_quarantine = Quarantine(capacity=quarantine_capacity)
    documents = guard_records(
        documents, _valid_document, local_quarantine, "webtext",
        plan=fault_plan, scope="records:webtext",
    )
    extractor = WebTextExtractor(
        entity_index, seeds, kb_triples, extractor_config
    )
    extractor.learn(documents)
    output = extractor.extract(documents)
    return output, local_quarantine, time.perf_counter() - started


class KnowledgeBaseConstructionPipeline:
    """Run the whole Figure-1 framework over one world."""

    def __init__(
        self,
        config: PipelineConfig | None = None,
        world: GroundTruthWorld | None = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.world = world or GroundTruthWorld(self.config.world)
        # Populated by run():
        self.freebase = None
        self.dbpedia = None
        self.entity_index: dict[str, object] = {}
        self.outputs: dict[str, ExtractorOutput] = {}
        self.seeds: dict[str, SeedSet] = {}
        self.claims: ClaimSet | None = None
        # The scored claim list fusion ran on (post resolution and
        # confidence scoring); run_incremental() primes its store from
        # this when available.
        self.all_triples: list | None = None
        # The KnowledgeFusion carrying the primed incremental engine
        # (None until run_incremental() first primes one; invalidated
        # by every full run()).
        self.incremental_fusion: KnowledgeFusion | None = None
        self._incremental_entity_resolution: ResolutionOutcome | None = None
        self._incremental_offset = 0
        self.quarantine = Quarantine(capacity=self.config.quarantine_capacity)
        # Observability: one registry/tracer pair per run (rebuilt at the
        # top of run()); the report of the most recent run — even one
        # that died mid-stage — stays reachable for debugging.
        self.metrics = MetricsRegistry()
        self.tracer = SpanTracer()
        self.last_report: PipelineReport | None = None

    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> PipelineReport:
        """Run the whole framework; returns the (instrumented) report.

        Every run starts from cold similarity caches (cleared here), so
        the cache metrics published into ``report.metrics`` are per-run
        values and count-type metrics stay byte-identical across
        same-seed runs.  The report is assigned to ``last_report``
        before any stage runs, so a run that dies mid-stage still
        leaves its partial timings, metrics and trace inspectable.
        """
        report = PipelineReport()
        self.last_report = report
        self.metrics = MetricsRegistry()
        self.tracer = SpanTracer()
        # A full run recomputes the claim corpus, so any previously
        # primed incremental engine is stale.
        self.incremental_fusion = None
        self._incremental_entity_resolution = None
        self._incremental_offset = 0
        clear_similarity_caches()
        self.metrics.counter("pipeline_runs_total").inc()
        self.metrics.counter("quarantine_records_total")  # always present
        run_started = time.perf_counter()
        root = self.tracer.span("pipeline")
        try:
            self._run_phases(report, resume)
            root.end()
        except BaseException:
            root.end(failed=True)
            raise
        finally:
            report.wall_seconds = time.perf_counter() - run_started
            publish_cache_metrics(self.metrics)
            report.metrics = self.metrics.snapshot()
            report.trace = self.tracer.to_json_dict()
        return report

    def _run_phases(self, report: PipelineReport, resume: bool) -> None:
        world = self.world
        cfg = self.config
        self._validate_config()
        health = report.health
        health.min_sources = cfg.min_sources
        self.quarantine = Quarantine(capacity=cfg.quarantine_capacity)

        store = None
        if cfg.checkpoint_dir is not None:
            store = CheckpointStore(
                cfg.checkpoint_dir, config_fingerprint(cfg),
                metrics=self.metrics,
            )

        restored = (
            store.load("extraction")
            if (store is not None and resume)
            else None
        )
        if restored is not None:
            mention_classes = self._restore_extraction(report, restored)
        else:
            mention_classes = self._run_extraction(report)
            if store is not None and not health.degraded:
                store.save(
                    "extraction",
                    self._extraction_payload(report, mention_classes),
                )

        health.quarantined = self.quarantine.to_dict()
        health.active_sources = sorted(self.outputs)
        for source, count in sorted(self.quarantine.counts.items()):
            self.metrics.counter(
                "quarantine_diverted_total", source=source
            ).inc(count)
        self.metrics.counter("quarantine_records_total").inc(
            self.quarantine.total
        )
        self.metrics.gauge("pipeline_active_sources").set(len(self.outputs))
        if len(self.outputs) < cfg.min_sources:
            raise PipelineError(
                f"only {len(self.outputs)} extraction source(s) healthy "
                f"({health.active_sources}), below min_sources="
                f"{cfg.min_sources}; degraded: {sorted(health.degraded)}"
            )

        claims_payload = (
            store.load("claims") if (store is not None and resume) else None
        )
        if claims_payload is not None:
            all_triples = claims_payload["all_triples"]
            self.outputs = dict(claims_payload["outputs"])
            report.entity_resolution = claims_payload["entity_resolution"]
            health.resumed_stages.append("claims")
            health.active_sources = sorted(self.outputs)
        else:
            all_triples = [
                scored
                for output in self.outputs.values()
                for scored in output.triples
            ]

            # -- 5b. Joint entity linking + discovery ----------------------
            if cfg.discover_new_entities:
                with self._stage_timer(report, "entity-resolution") as timing:
                    self._check_fatal_fault("entity-resolution")
                    resolver = JointEntityResolver(
                        EntityLinker(self.entity_index)
                    )
                    all_triples, outcome = resolve_mention_triples(
                        all_triples, mention_classes, resolver
                    )
                    report.entity_resolution = outcome
                    resolver.linker.publish_blocking_metrics(self.metrics)
                    resolver.blocking_stats.publish(self.metrics)
                    timing.detail = (
                        f"{len(outcome.linked)} linked, "
                        f"{len(outcome.clusters)} new entities"
                    )

            # -- 6. Attribute resolution ----------------------------------
            if cfg.resolve_attributes:
                with self._stage_timer(report, "attribute-resolution") as timing:
                    self._check_fatal_fault("attribute-resolution")
                    all_triples = self._resolve_attributes(all_triples)
                    timing.detail = f"{len(all_triples)} claims"

            # -- 7. Confidence scoring ------------------------------------
            with self._stage_timer(report, "confidence") as timing:
                self._check_fatal_fault("confidence")
                scorer = ConfidenceScorer(cfg.confidence)
                all_triples = scorer.score_batch(all_triples)
                for output in self.outputs.values():
                    for per_class in output.attributes.values():
                        for record in per_class.values():
                            record.confidence = scorer.score_attribute(record)
                timing.detail = f"{len(all_triples)} claims"

            if store is not None and not health.degraded:
                store.save(
                    "claims",
                    {
                        "all_triples": all_triples,
                        "outputs": self.outputs,
                        "entity_resolution": report.entity_resolution,
                    },
                )

        for extractor_id, output in self.outputs.items():
            report.attribute_counts[extractor_id] = {
                class_name: output.attribute_count(class_name)
                for class_name in world.classes()
            }
            report.triple_counts[extractor_id] = len(output.triples)
            self.metrics.counter(
                "extraction_claims_total", extractor=extractor_id
            ).inc(len(output.triples))

        # -- 8. Fusion -----------------------------------------------------
        self.all_triples = all_triples
        with self._stage_timer(report, "fusion") as timing:
            self._check_fatal_fault("fusion")
            self.claims = ClaimSet.from_scored_triples(all_triples)
            functional_of = self._select_functional_oracle(self.claims)
            fusion = self._build_fusion(functional_of)
            fuse_started = time.perf_counter()
            result = fusion.fuse(self.claims)
            report.fusion_wall = time.perf_counter() - fuse_started
            self._publish_fusion_metrics(report, result, fusion)
            shard_stats = fusion.last_shard_stats
            if shard_stats is not None:
                report.fusion_shards = {
                    "components": shard_stats.components,
                    "workers": shard_stats.workers,
                    "executor": shard_stats.executor,
                    "largest_claims": shard_stats.largest_claims,
                    "component_claims": shard_stats.component_claims,
                }
                if shard_stats.attempts:
                    health.retry = {
                        "attempts": shard_stats.attempts,
                        "retries": shard_stats.retries,
                        "timed_out_tasks": shard_stats.timed_out_tasks,
                    }
            report.fusion_result = result
            timing.detail = (
                f"{len(self.claims)} claims, {len(result.truths)} items"
            )

        # -- 9. Evaluation --------------------------------------------------
        with self._stage_timer(report, "evaluation"):
            self._check_fatal_fault("evaluation")
            evaluated = self._remap_for_evaluation(
                result, report.entity_resolution
            )
            report.fusion_report = evaluate_fusion(world, evaluated)

        # -- 10. Augmentation ------------------------------------------------
        with self._stage_timer(report, "augmentation") as timing:
            self._check_fatal_fault("augmentation")
            if self.freebase is None:
                # The KB stage degraded away: there is no snapshot to
                # augment, but fusion/evaluation above still ran.
                health.mark_degraded(
                    "augmentation", "skipped: kb snapshot unavailable"
                )
                timing.detail = "skipped"
            else:
                discovered_entities = (
                    report.entity_resolution.new_entities()
                    if report.entity_resolution is not None
                    else None
                )
                report.augmentation = augment_kb(
                    self.freebase,
                    list(self.outputs.values()),
                    result,
                    self.claims,
                    class_of_subject=self._class_of_subject,
                    new_entities=discovered_entities,
                )
                timing.detail = (
                    f"{report.augmentation.new_facts} facts, "
                    f"{report.augmentation.total_new_attributes()} attributes, "
                    f"{report.augmentation.new_entities} entities"
                )

    # ------------------------------------------------------------------
    def _validate_config(self) -> None:
        cfg = self.config
        if cfg.fusion_parallelism < 1:
            raise PipelineError("fusion_parallelism must be >= 1")
        if cfg.min_sources < 0:
            raise PipelineError("min_sources must be >= 0")
        if cfg.quarantine_capacity < 1:
            raise PipelineError("quarantine_capacity must be >= 1")
        if cfg.stage_timeout is not None and cfg.stage_timeout <= 0:
            raise PipelineError("stage_timeout must be positive")
        if cfg.storage_backend not in ("memory", "segment"):
            raise PipelineError(
                "storage_backend must be 'memory' or 'segment', "
                f"got {cfg.storage_backend!r}"
            )
        if cfg.storage_backend == "segment" and not cfg.storage_dir:
            raise PipelineError(
                "storage_backend='segment' requires storage_dir"
            )
        if cfg.memtable_limit < 1:
            raise PipelineError("memtable_limit must be >= 1")

    # ------------------------------------------------------------------
    # Observability helpers.

    def _stage_timer(self, report: PipelineReport, stage: str) -> "_timed":
        """A ``_timed`` wired to this run's tracer and metrics."""
        return _timed(
            report, stage, tracer=self.tracer, metrics=self.metrics
        )

    def _record_stage(
        self, report: PipelineReport, stage: str, seconds: float, detail: str
    ) -> None:
        """Book one completed extraction stage everywhere at once.

        The stage body measured ``seconds`` itself, so the span is
        back-dated rather than live-timed.
        """
        report.timings.append(StageTiming(stage, seconds, detail))
        self.tracer.record(stage, seconds, detail=detail)
        self.metrics.histogram(
            "pipeline_stage_seconds", stage=stage
        ).observe(seconds)
        self.metrics.counter(
            "pipeline_stage_success_total", stage=stage
        ).inc()

    def _publish_fusion_metrics(
        self, report: PipelineReport, result, fusion
    ) -> None:
        """Kernel-level fusion accounting: rounds, convergence, shards."""
        metrics = self.metrics
        metrics.counter("fusion_rounds_total").inc(result.iterations)
        metrics.counter("fusion_claims_total").inc(len(self.claims))
        metrics.counter("fusion_truth_items_total").inc(len(result.truths))
        metrics.counter("fusion_converged_runs_total")
        if result.converged_at is not None:
            metrics.counter("fusion_converged_runs_total").inc()
            metrics.gauge("fusion_converged_at_round").set(
                result.converged_at
            )
        metrics.histogram("fusion_fuse_seconds").observe(report.fusion_wall)
        shard_stats = fusion.last_shard_stats
        if shard_stats is not None:
            metrics.gauge("fusion_components").set(shard_stats.components)
            metrics.gauge("fusion_largest_component_claims").set(
                shard_stats.largest_claims
            )
            component_sizes = metrics.histogram("fusion_component_claims")
            for size in shard_stats.component_claims:
                component_sizes.observe(size)

    # ------------------------------------------------------------------
    def _check_fatal_fault(self, stage: str) -> None:
        """Fire any injected fault targeting a post-extraction stage.

        These stages are not isolated (their outputs feed everything
        downstream), so an injected crash here aborts the run — exactly
        the scenario checkpoint/resume exists for.
        """
        plan = self.config.fault_plan
        if plan is not None:
            plan.task_delay(f"stage:{stage}", 0, 0)

    def _guarded_stage(self, report: PipelineReport, stage: str, call):
        """Run one extraction stage inside an isolation boundary.

        ``call`` must return a tuple whose last element is the stage's
        measured work seconds.  On success returns that tuple with any
        injected slow-seconds folded into the timing (so deadline tests
        never actually sleep); on exception — organic, injected, or a
        :class:`StageTimeoutError` raised here when the stage exceeds
        ``stage_timeout`` — marks the stage degraded in the report's
        health section and returns None, and the pipeline continues
        with the remaining sources.
        """
        cfg = self.config
        try:
            extra = 0.0
            if cfg.fault_plan is not None:
                extra = cfg.fault_plan.task_delay(f"stage:{stage}", 0, 0)
            result = call()
            seconds = result[-1] + extra
            if cfg.stage_timeout is not None and seconds > cfg.stage_timeout:
                raise StageTimeoutError(
                    f"stage {stage} ran {seconds:.3f}s, "
                    f"over the {cfg.stage_timeout}s deadline"
                )
            return result[:-1] + (seconds,)
        except Exception as exc:  # noqa: BLE001 — the isolation boundary
            reason = f"{type(exc).__name__}: {exc}"
            report.health.mark_degraded(stage, reason)
            self.tracer.record(stage, 0.0, detail=reason, failed=True)
            self.metrics.counter(
                "pipeline_stage_failed_total", stage=stage
            ).inc()
            return None

    def _guard_input(self, records, validator, source: str):
        """Divert malformed records of one input stream."""
        return guard_records(
            records,
            validator,
            self.quarantine,
            source,
            plan=self.config.fault_plan,
            scope=f"records:{source}",
        )

    # ------------------------------------------------------------------
    def _run_extraction(self, report: PipelineReport) -> dict[str, str]:
        """Stages 1-5: run the four extractors in pipeline order.

        Returns the DOM extractor's mention-surface → class map (used by
        joint entity resolution).  Every stage runs inside
        :meth:`_guarded_stage`, so one crashing extractor degrades its
        source instead of killing the run.
        """
        world = self.world
        cfg = self.config
        plan = cfg.fault_plan

        # -- 1. KB snapshots ------------------------------------------------
        kb_output = None
        kb_result = self._guarded_stage(
            report, "kb-extraction", lambda: _kb_stage(world, cfg.kb_pair)
        )
        if kb_result is not None:
            self.freebase, self.dbpedia, kb_output, kb_seconds = kb_result
            self.outputs["kb"] = kb_output
            self._record_stage(
                report, "kb-extraction", kb_seconds,
                f"{len(kb_output.triples)} claims",
            )

        self.entity_index = (
            self._set_e_index() if self.freebase is not None else {}
        )

        # -- 2. Query stream (extraction needs Set_E) ----------------------
        def query_stream_call():
            log, log_seconds = _querylog_stage(world, cfg.querylog)
            log = self._guard_input(log, _valid_query_record, "querystream")
            started = time.perf_counter()
            extractor = QueryStreamExtractor(
                self.entity_index, cfg.querystream
            )
            query_output, query_stats = extractor.extract(log)
            return (
                query_output,
                query_stats,
                len(log),
                log_seconds + (time.perf_counter() - started),
            )

        query_output = None
        query_result = self._guarded_stage(
            report, "query-stream", query_stream_call
        )
        if query_result is not None:
            query_output, query_stats, record_count, query_seconds = (
                query_result
            )
            self.outputs["querystream"] = query_output
            report.query_stats = query_stats
            self._record_stage(
                report, "query-stream", query_seconds,
                f"{record_count} records",
            )

        # -- 3. Seed sets --------------------------------------------------
        seed_outputs = [
            output for output in (kb_output, query_output) if output is not None
        ]
        self.seeds = build_seed_sets(
            seed_outputs,
            world.classes(),
            min_support=cfg.seed_min_support,
        )
        report.seed_sizes = {
            class_name: len(seed) for class_name, seed in self.seeds.items()
        }

        # -- 4. DOM extraction ---------------------------------------------
        dom_config = cfg.dom
        if cfg.discover_new_entities:
            dom_config = replace(dom_config, allow_mention_anchors=True)

        def dom_stage_call():
            output, mention_classes, local_quarantine, seconds = _dom_stage(
                self.entity_index, self.seeds, dom_config,
                world, cfg.websites, plan, cfg.quarantine_capacity,
            )
            self.quarantine.merge(local_quarantine)
            return output, mention_classes, seconds

        mention_classes: dict[str, str] = {}
        dom_result = self._guarded_stage(
            report, "dom-extraction", dom_stage_call
        )
        if dom_result is not None:
            dom_output, mention_classes, dom_seconds = dom_result
            self.outputs["dom"] = dom_output
            self._record_stage(
                report, "dom-extraction", dom_seconds,
                f"{len(dom_output.triples)} claims",
            )

        # -- 5. Web-text extraction ----------------------------------------
        kb_triples = kb_output.triples if kb_output is not None else []

        def text_stage_call():
            output, local_quarantine, seconds = _webtext_stage(
                self.entity_index, self.seeds, kb_triples,
                world, cfg.webtext, cfg.webtext_extractor,
                plan, cfg.quarantine_capacity,
            )
            self.quarantine.merge(local_quarantine)
            return output, seconds

        text_result = self._guarded_stage(
            report, "webtext-extraction", text_stage_call
        )
        if text_result is not None:
            text_output, text_seconds = text_result
            self.outputs["webtext"] = text_output
            self._record_stage(
                report, "webtext-extraction", text_seconds,
                f"{len(text_output.triples)} claims",
            )
        return mention_classes

    # ------------------------------------------------------------------
    def _extraction_payload(
        self, report: PipelineReport, mention_classes: dict[str, str]
    ) -> dict:
        """Everything the extraction checkpoint must restore."""
        return {
            "freebase": self.freebase,
            "dbpedia": self.dbpedia,
            "outputs": self.outputs,
            "seeds": self.seeds,
            "entity_index": self.entity_index,
            "mention_classes": mention_classes,
            "seed_sizes": report.seed_sizes,
            "query_stats": report.query_stats,
            "quarantine": self.quarantine,
        }

    def _restore_extraction(
        self, report: PipelineReport, payload: dict
    ) -> dict[str, str]:
        """Restore extraction state from a checkpoint payload.

        Stage timings are deliberately not restored: a resumed report
        shows no extraction timings, which is the visible signal the
        stages were skipped.
        """
        self.freebase = payload["freebase"]
        self.dbpedia = payload["dbpedia"]
        self.outputs = dict(payload["outputs"])
        self.seeds = payload["seeds"]
        self.entity_index = payload["entity_index"]
        self.quarantine = payload["quarantine"]
        report.seed_sizes = payload["seed_sizes"]
        report.query_stats = payload["query_stats"]
        report.health.resumed_stages.append("extraction")
        return payload["mention_classes"]

    # ------------------------------------------------------------------
    def _set_e_index(self):
        """Set_E: representative entities of the Freebase snapshot."""
        index: dict[str, object] = {}
        for view in self.freebase.classes.values():
            for entity in view.entities:
                for form in entity.surface_forms():
                    index.setdefault(form.lower(), entity)
        return index

    def _class_of_subject(self, subject: str) -> str | None:
        parts = subject.split("/")
        head = parts[1] if parts[0] == "new" and len(parts) > 1 else parts[0]
        for class_name in self.world.classes():
            if head == class_name.lower():
                return class_name
        return None

    def _functional_oracle(self):
        functional: dict[str, bool] = {}
        for class_name in self.world.classes():
            for spec in self.world.catalogs[class_name].attributes:
                functional.setdefault(spec.name, spec.functional)
        return lambda predicate: functional.get(predicate, False)

    def _select_functional_oracle(self, claims: ClaimSet):
        """The functionality oracle per ``functionality_source``."""
        cfg = self.config
        if cfg.functionality_source == "estimated":
            from repro.fusion.functionality import (
                functional_oracle_from_claims,
            )

            return functional_oracle_from_claims(claims)
        if cfg.functionality_source == "schema":
            return self._functional_oracle()
        raise PipelineError(
            "functionality_source must be 'schema' or 'estimated', "
            f"got {cfg.functionality_source!r}"
        )

    def _build_fusion(self, functional_of) -> KnowledgeFusion:
        """The combined fusion method, configured from this pipeline."""
        cfg = self.config
        return KnowledgeFusion(
            hierarchy=self.world.hierarchy if cfg.use_hierarchy else None,
            functional_of=functional_of,
            use_source_correlations=cfg.use_source_correlations,
            use_extractor_correlations=cfg.use_extractor_correlations,
            use_confidence=cfg.use_confidence,
            tolerance=cfg.fusion_tolerance,
            parallelism=cfg.fusion_parallelism,
            retry=cfg.retry,
            fault_plan=cfg.fault_plan,
            metrics=self.metrics,
        )

    def _remap_for_evaluation(self, result, entity_resolution):
        """Resolve discovered-entity ids back to gold identities.

        Evaluation-only knowledge: the cluster names refer to real
        world entities that were absent from Set_E.
        """
        if entity_resolution is None:
            return result
        gold_index = self.world.entity_index()
        mapping: dict[str, str] = {}
        for cluster in entity_resolution.clusters:
            for surface in cluster.surfaces:
                entity = gold_index.get(surface.lower())
                if entity is not None:
                    mapping[cluster.cluster_id] = entity.entity_id
                    break
        return remap_subjects(result, mapping)

    # ------------------------------------------------------------------
    # Incremental updates.

    def _checkpoint_store(self) -> CheckpointStore | None:
        if self.config.checkpoint_dir is None:
            return None
        return CheckpointStore(
            self.config.checkpoint_dir,
            config_fingerprint(self.config),
            metrics=self.metrics,
        )

    def _build_claim_store(self):
        """A :class:`TripleStore` on the configured storage backend.

        ``"segment"`` opens (or creates) the LSM segment directory,
        wiring this run's metrics registry and fault plan through to
        the backend so ``storage_*`` metrics and the
        ``storage:flush``/``storage:compaction`` chaos scopes work
        end-to-end; delta journal writes then become memtable inserts
        that flush to segments at ``memtable_limit``.
        """
        from repro.rdf.store import TripleStore

        cfg = self.config
        if cfg.storage_backend == "segment":
            from repro.rdf.segments import SegmentBackend

            return TripleStore(
                SegmentBackend(
                    cfg.storage_dir,
                    memtable_limit=cfg.memtable_limit,
                    metrics=self.metrics,
                    fault_plan=cfg.fault_plan,
                )
            )
        return TripleStore()

    def _prime_incremental(self, resume: bool) -> str | None:
        """Build and prime the incremental engine; returns the
        checkpoint stage the claim corpus was restored from (None when
        it came from this process's last run())."""
        # serve() / run_incremental() get here without a run(), so the
        # config has not been looked at yet.
        self._validate_config()
        cfg = self.config
        all_triples = self.all_triples
        entity_resolution = (
            self.last_report.entity_resolution
            if self.last_report is not None
            else None
        )
        resumed_from = None
        if all_triples is None:
            store = self._checkpoint_store()
            if store is None or not resume:
                raise PipelineError(
                    "run_incremental needs claims: call run() first, or "
                    "pass resume=True with a checkpoint_dir holding a "
                    "claims/incremental checkpoint"
                )
            payload = store.load("incremental")
            if payload is not None:
                resumed_from = "incremental"
                self._incremental_offset = payload.get("sequence", 0)
            else:
                payload = store.load("claims")
                if payload is None:
                    raise PipelineError(
                        "resume=True but no usable claims/incremental "
                        f"checkpoint in {cfg.checkpoint_dir!r} (missing "
                        "or stale fingerprint)"
                    )
                resumed_from = "claims"
            all_triples = payload["all_triples"]
            entity_resolution = payload.get("entity_resolution")

        claims = ClaimSet.from_scored_triples(all_triples)
        functional_refresh = None
        if cfg.functionality_source == "estimated":
            from repro.fusion.functionality import (
                functional_oracle_from_claims,
            )

            # Re-derived by the engine after every delta; the initial
            # oracle is set by prime() through the same callback.
            functional_of = None
            functional_refresh = functional_oracle_from_claims
        else:
            functional_of = self._select_functional_oracle(claims)

        fusion = self._build_fusion(functional_of)
        triple_store = self._build_claim_store()
        triple_store.add_all(all_triples)
        fusion.begin_incremental(
            triple_store, functional_refresh=functional_refresh
        )
        self.incremental_fusion = fusion
        self._incremental_entity_resolution = entity_resolution
        return resumed_from

    def run_incremental(self, delta, *, resume: bool = False):
        """Apply one :class:`~repro.incremental.delta.ClaimDelta`.

        Journals the delta into the claim store and re-fuses only the
        dirty connected components (see :mod:`repro.incremental`), then
        re-evaluates the merged result against the world.  The claim
        corpus comes from, in order of preference: the engine primed by
        a previous call, this process's last :meth:`run`, or (with
        ``resume=True`` and a ``checkpoint_dir``) the ``"incremental"``
        or ``"claims"`` checkpoint — so resume and delta-apply compose:
        a crashed session picks up exactly where the last applied delta
        left the store.  Each successful call saves an ``"incremental"``
        checkpoint with the post-delta claim corpus.

        Returns an :class:`IncrementalReport`.
        """
        started = time.perf_counter()
        self.metrics.counter("pipeline_incremental_runs_total").inc()
        primed = False
        resumed_from = None
        if self.incremental_fusion is None:
            resumed_from = self._prime_incremental(resume)
            primed = True

        outcome = self.incremental_fusion.apply_delta(delta)
        engine = self.incremental_fusion.incremental
        self.all_triples = engine.store.claims()
        self.claims = engine.claims

        evaluated = self._remap_for_evaluation(
            outcome.result, self._incremental_entity_resolution
        )
        fusion_report = evaluate_fusion(self.world, evaluated)

        sequence = self._incremental_offset + outcome.sequence
        store = self._checkpoint_store()
        if store is not None:
            store.save(
                "incremental",
                {
                    "all_triples": engine.store.claims(),
                    "sequence": sequence,
                    "entity_resolution": (
                        self._incremental_entity_resolution
                    ),
                },
            )
        return IncrementalReport(
            outcome=outcome,
            fusion_result=outcome.result,
            fusion_report=fusion_report,
            sequence=sequence,
            primed=primed,
            resumed_from=resumed_from,
            wall_seconds=time.perf_counter() - started,
        )

    def serve(self, *, resume: bool = False, retry=None, log=None,
              group: str = "serving"):
        """Build a :class:`~repro.serving.server.KBServer` over this run.

        Primes the incremental engine if needed (same corpus rules as
        :meth:`run_incremental`: last ``run()``, or ``resume=True``
        with a checkpoint), then hands it to a server whose event log,
        retry policy, quarantine, metrics and fault plan come from the
        pipeline config.  Readers pin immutable versions while
        published deltas commit through the stream consumer — see
        :mod:`repro.serving`.
        """
        from repro.serving.server import KBServer
        from repro.serving.stream import EventLog

        if self.incremental_fusion is None:
            self._prime_incremental(resume)
        cfg = self.config
        return KBServer(
            self.incremental_fusion.incremental,
            log if log is not None else EventLog(
                cfg.serving_log_capacity, metrics=self.metrics
            ),
            group=group,
            retry=retry if retry is not None else cfg.retry,
            quarantine=Quarantine(capacity=cfg.quarantine_capacity),
            metrics=self.metrics,
            fault_plan=cfg.fault_plan,
        )

    # ------------------------------------------------------------------
    # Scenario runs: moving truth and copying sources.

    def run_drift(
        self, config: DriftConfig | None = None
    ) -> DriftScenarioReport:
        """Drive serving with a drifting world's epoch-delta stream.

        Builds a seeded :class:`~repro.synth.drift.DriftingWorld`,
        primes the incremental engine on its base corpus, then
        publishes each epoch's :class:`ClaimDelta` through
        :meth:`serve`'s event stream and drains it to a committed KB
        version.  Every epoch is scored with
        :func:`~repro.evalx.freshness.freshness_report` against both
        the truth of the *served* epoch and the *current* truth, so
        the report separates fusion quality from staleness.  The
        report's ``to_json_dict`` is deterministic: same config, same
        bytes.
        """
        cfg = config or DriftConfig()
        started = time.perf_counter()
        world = DriftingWorld(cfg)
        self.metrics.counter("drift_runs_total").inc()
        self.metrics.counter("drift_base_claims_total").inc(len(world.base))

        # The drift corpus replaces whatever the last run() left: the
        # engine must be primed fresh on the drifting world's base.
        self.incremental_fusion = None
        self._incremental_entity_resolution = None
        self._incremental_offset = 0
        self.all_triples = list(world.base)
        server = self.serve()

        report = DriftScenarioReport(
            seed=cfg.seed,
            epochs=cfg.epochs,
            base_claims=len(world.base),
            final_version=0,
        )
        for index, epoch in enumerate(world.epochs, start=1):
            truth = epoch.truth
            self.metrics.counter("drift_epochs_total").inc()
            self.metrics.counter("drift_births_total").inc(len(truth.born))
            self.metrics.counter("drift_deaths_total").inc(len(truth.died))
            self.metrics.counter("drift_renames_total").inc(
                len(truth.renamed)
            )
            self.metrics.counter("drift_value_changes_total").inc(
                len(truth.changed)
            )
            server.publish(epoch.delta)
            server.drain()
            version = server.versions.current
            served_epoch = version.version_id
            fresh = freshness_report(
                version.result.truths,
                served_epoch=served_epoch,
                current_epoch=index,
                served_truth=world.truth_at(served_epoch),
                current_truth=world.truth_at(index),
            )
            self.metrics.gauge("drift_freshness_lag_epochs").set(
                fresh.lag_epochs
            )
            self.metrics.gauge("drift_staleness_ratio").set(fresh.staleness)
            self.metrics.histogram("drift_epoch_delta_claims").observe(
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
        self, config: CopyingConfig | None = None
    ) -> CopyingScenarioReport:
        """Fuse a copying world with correlations off, then on.

        Builds a seeded :class:`~repro.synth.copying.CopyingWorld`
        (copier sources replicating a victim's claims, errors
        included) and fuses its claims twice — correlation-blind and
        correlation-aware — scoring each mode's copied-error
        suppression against the world's gold standard.  The
        correlation machinery earns its keep when the aware mode
        suppresses more copied errors than the blind one.
        """
        cfg = config or CopyingConfig()
        started = time.perf_counter()
        world = generate_copying_world(cfg)
        self.metrics.counter("copying_runs_total").inc()
        self.metrics.counter("copying_claims_total").inc(len(world.claims))
        self.metrics.counter("copying_copied_errors_total").inc(
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
            self.metrics.counter(
                "copying_suppressed_total", mode=mode
            ).inc(suppressed)
            self.metrics.counter(
                "copying_leaked_total", mode=mode
            ).inc(leaked)
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

    def run_tenants(self, config: TenantMixConfig | None = None):
        """Ingest and serve a multi-tenant mix on one shared runtime.

        Expands the mix into per-tenant workloads
        (:func:`~repro.synth.tenants.build_tenant_workload`), hosts
        one isolated serving stack per tenant behind a
        :class:`~repro.serving.tenancy.TenantManager` — per-tenant
        metrics labels on this pipeline's registry, checkpoints under
        ``checkpoint_dir/<tenant>`` when a checkpoint dir is set —
        drains the fleet fair-share, and scores every tenant against
        its own ground truth.  The report's ``to_json_dict`` is
        deterministic: same mix config, same bytes.
        """
        from repro.serving.tenancy import TenantManager

        cfg = config or TenantMixConfig()
        started = time.perf_counter()
        self.metrics.counter("tenant_runs_total").inc()
        manager = TenantManager.from_mix(
            cfg,
            metrics=self.metrics,
            capacity=self.config.serving_log_capacity,
            retry=self.config.retry,
            checkpoint_root=self.config.checkpoint_dir,
        )
        rounds = manager.drain_fair()
        if self.config.checkpoint_dir is not None:
            manager.checkpoint_all()
        report = manager.eval_rows(rounds=rounds)
        report.wall_seconds = time.perf_counter() - started
        return report

    def _resolve_attributes(self, triples):
        profiles_by_class: dict[str, dict[str, set]] = {}
        support_by_class: dict[str, dict[str, int]] = {}
        for output in self.outputs.values():
            for class_name, per_class in output.attributes.items():
                support = support_by_class.setdefault(class_name, {})
                for name, record in per_class.items():
                    support[name] = support.get(name, 0) + record.support
        profiles = build_value_profiles(triples)
        resolutions = {}
        # One shared stats object so per-class resolvers aggregate into
        # a single "attributes" blocking site.
        stats = BlockingStats("attributes")
        for class_name, support in support_by_class.items():
            class_profiles = {
                name: profile
                for name, profile in profiles.items()
                if name in support
            }
            resolutions[class_name] = AttributeResolver(
                class_name, support, class_profiles, stats=stats
            ).run()
        stats.publish(self.metrics)
        return apply_resolution(triples, resolutions, self._class_of_subject)


class _timed:
    """Context manager recording a stage timing into a report.

    The timing is appended whether or not the block raises: a failed
    stage still spent the time, and dropping it made degraded-run
    reports under-count wall-clock work.  Failures are marked in the
    timing detail (``failed: <ExcType>``) and, when a tracer/metrics
    pair is attached, in the span status and the
    ``pipeline_stage_failed_total`` counter.
    """

    def __init__(
        self,
        report: PipelineReport,
        stage: str,
        *,
        tracer: SpanTracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.report = report
        self.stage = stage
        self.timing = StageTiming(stage, 0.0)
        self._tracer = tracer
        self._metrics = metrics
        self._span = None

    def __enter__(self) -> StageTiming:
        if self._tracer is not None:
            self._span = self._tracer.span(self.stage)
        self._start = time.perf_counter()
        return self.timing

    def __exit__(self, exc_type, exc, tb) -> None:
        self.timing.seconds = time.perf_counter() - self._start
        failed = exc_type is not None
        if failed:
            marker = f"failed: {exc_type.__name__}"
            self.timing.detail = (
                f"{self.timing.detail}; {marker}"
                if self.timing.detail else marker
            )
            self.report.health.mark_degraded(
                self.stage, f"{exc_type.__name__}: {exc}"
            )
        self.report.timings.append(self.timing)
        if self._span is not None:
            self._span.end(detail=self.timing.detail, failed=failed)
        if self._metrics is not None:
            self._metrics.histogram(
                "pipeline_stage_seconds", stage=self.stage
            ).observe(self.timing.seconds)
            outcome = (
                "pipeline_stage_failed_total"
                if failed else "pipeline_stage_success_total"
            )
            self._metrics.counter(outcome, stage=self.stage).inc()
