"""The end-to-end KB-construction pipeline (Figure 1).

Orchestrates both phases of the framework over a ground-truth world:

Knowledge extraction
    1.  extract/combine the attributes and claims of the KB snapshots
        (Freebase + DBpedia);
    2.  generate the query stream and extract credible attributes;
    3.  form per-class seed sets from the two accurate sources;
    4.  run the DOM extractor (Algorithm 1) over the websites;
    5.  run the seed-driven text extractor over the Web texts;
    6.  resolve attribute misspellings/synonyms across extractors;
    7.  assign unified confidence scores to every triple.

Knowledge fusion
    8.  fuse all claims with the combined method (multi-truth +
        hierarchy + correlations + confidence);
    9.  evaluate against the world (gold standard by construction);
    10. augment the Freebase snapshot with the fused knowledge.

Sources
    The KB pair, the websites and the Web texts are inputs, not stages:
    :data:`SOURCES` builds each once per pipeline, the first time a
    stage reads it, and no run writes into one (the DOM stage guards
    pages into new sites, augmentation works on a copy of the Freebase
    snapshot).  The query log is a stream, generated per run.

Stages
    :data:`STAGES` declares the timed stages (1, 2, 4, 5, joint entity
    resolution and 6–10) in run order, and which are isolated.  Each
    runs as one ``_stage`` call — one :meth:`~repro.faults.RetryPolicy.call`
    booked once: timing, health, span and metrics.  The configuration
    lives in :mod:`repro.core.config`, the drift / copying / tenant
    scenario runs in :mod:`repro.core.scenarios`.

Fault tolerance
    The fusion framework is meant to run over noisy Web-scale inputs
    where individual extractors crash, hang or emit garbage.  Three
    mechanisms keep a run alive (all deterministic, all testable
    without wall-clock waits):

    * **Stage isolation** — the four extraction stages are *isolated*:
      an exception (or a deadline overrun against
      ``PipelineConfig.stage_timeout``) marks the stage ``degraded`` in
      ``PipelineReport.health`` and the pipeline continues with the
      remaining sources.  If fewer than ``min_sources`` extractor
      outputs survive, the run aborts with :class:`PipelineError` —
      fusing one source is no fusion at all.  The later stages feed
      everything downstream, so a failure there is marked and
      re-raised — which is what checkpoint/resume is for.
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

    The fuse is one MapReduce job, a reduce group per component of the
    claim graph; ``PipelineConfig.retry`` retries its failed tasks with
    deterministic backoff (:mod:`repro.mapreduce.engine`).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from repro.core.augmentation import AugmentationReport, augment_kb
from repro.core.checkpoint import CheckpointStore, config_fingerprint
from repro.core.config import PipelineConfig
from repro.core.quarantine import Quarantine, guard_records
from repro.errors import PipelineError, RetryExhaustedError
from repro.faults import RetryPolicy
from repro.obs import MetricsRegistry, MetricsSnapshot, SpanTracer
from repro.textproc.memo import clear_similarity_caches, publish_cache_metrics
from repro.core.confidence import ConfidenceScorer
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
from repro.evalx.metrics import (
    TruthDiscoveryReport,
    evaluate_fusion,
    remap_subjects,
)
from repro.extract.base import ExtractorOutput
from repro.extract.dom import DomExtractorConfig, DomTreeExtractor
from repro.extract.kb import KbExtractor, combine_kb_outputs
from repro.extract.querystream import (
    QueryStreamExtractor,
    QueryStreamStats,
)
from repro.extract.seeds import SeedSet, build_seed_sets
from repro.extract.webtext import WebTextExtractor
from repro.fusion.base import ClaimSet, FusionResult
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.synth.kb_snapshots import build_kb_pair
from repro.synth.querylog import QueryRecord, generate_query_log
from repro.synth.websites import WebPage, generate_websites
from repro.synth.webtext import TextDocument, generate_webtext
from repro.synth.world import GroundTruthWorld

#: The timed stages in run order, each mapped to whether it is isolated
#: (a failure degrades its source and the run goes on without it).
STAGES: dict[str, bool] = {
    "kb-extraction": True,
    "query-stream": True,
    "dom-extraction": True,
    "webtext-extraction": True,
    "entity-resolution": False,
    "attribute-resolution": False,
    "confidence": False,
    "fusion": False,
    "evaluation": False,
    "augmentation": False,
}

#: The held sources, each built from the world and its config section
#: once per pipeline, on first read.  The query log is a stream, not one.
SOURCES: dict[str, Callable[[GroundTruthWorld, PipelineConfig], object]] = {
    "kb_pair": lambda world, cfg: build_kb_pair(world, cfg.kb_pair),
    "websites": lambda world, cfg: generate_websites(world, cfg.websites),
    "webtext": lambda world, cfg: generate_webtext(world, cfg.webtext),
}


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
    # a task of it was retried or timed out.
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
    # Connected-component accounting of the fuse (empty on a hand-built
    # report): components / largest_claims / component_claims.
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


def _counted(timing: StageTiming, triples: list) -> list:
    """Note the claim count of a stage's output in its timing."""
    timing.detail = f"{len(triples)} claims"
    return triples


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


class KnowledgeBaseConstructionPipeline:
    """Run the whole Figure-1 framework over one world."""

    def __init__(
        self,
        config: PipelineConfig | None = None,
        world: GroundTruthWorld | None = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.world = world or GroundTruthWorld(self.config.world)
        # SOURCES name -> the held source, built on first read.
        self._sources: dict[str, object] = {}
        self._reset_extraction()
        self.claims: ClaimSet | None = None
        # The scored claim list fusion ran on (post resolution and
        # confidence scoring); serve() primes its store from this.
        self.all_triples: list | None = None
        self._reset_incremental()
        self.quarantine = Quarantine()
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
        # A full run recomputes the claim corpus: what the previous run
        # extracted must not stand in for a source that degrades in
        # this one, and any previously primed incremental engine is
        # stale.
        self._reset_extraction()
        self._reset_incremental()
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

    def _reset_extraction(self) -> None:
        """Forget what the stages of a previous run left (not the
        sources: no run writes into them)."""
        # The constructed KB: the augmented copy of the Freebase snapshot.
        self.freebase = None
        self.entity_index: dict[str, object] = {}
        self.outputs: dict[str, ExtractorOutput] = {}
        self.seeds: dict[str, SeedSet] = {}

    def _source(self, name: str):
        """The held source ``name`` (see :data:`SOURCES`)."""
        held = self._sources.get(name)
        if held is None:
            held = self._sources[name] = SOURCES[name](self.world, self.config)
        return held

    def _reset_incremental(self) -> None:
        """Forget the primed incremental engine; the next :meth:`serve`
        primes a new one from ``all_triples``."""
        self._engine = None

    def _run_phases(self, report: PipelineReport, resume: bool) -> None:
        world = self.world
        cfg = self.config
        cfg.validate()
        if resume and cfg.checkpoint_dir is None:
            raise PipelineError("resume needs a checkpoint_dir to resume from")
        health = report.health
        health.min_sources = cfg.min_sources
        self.quarantine = Quarantine()

        store = None
        if cfg.checkpoint_dir is not None:
            store = CheckpointStore(
                cfg.checkpoint_dir, config_fingerprint(cfg),
                metrics=self.metrics,
            )

        mention_classes = self._checkpointed(
            report, store, resume, "extraction",
            lambda: self._run_extraction(report),
            lambda payload: self._restore_extraction(report, payload),
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

        all_triples = self._checkpointed(
            report, store, resume, "claims",
            lambda: self._prepare_claims(report, mention_classes),
            lambda payload: self._restore_claims(report, payload),
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

        self.all_triples = all_triples
        result = report.fusion_result = self._stage(
            report, "fusion",
            lambda timing: self._fuse(timing, report, all_triples),
        )
        report.fusion_report = self._stage(
            report, "evaluation",
            lambda timing: evaluate_fusion(
                world,
                self._remap_for_evaluation(result, report.entity_resolution),
            ),
        )
        report.augmentation = self._stage(
            report, "augmentation",
            lambda timing: self._augment(timing, report, result),
        )

    def _checkpointed(self, report, store, resume, phase, compute, restore):
        """One checkpointed phase: ``restore`` the payload ``store`` holds
        for ``phase`` on a resumed run, else the one ``compute`` builds,
        saved first while the run is still healthy."""
        payload = store.load(phase) if resume else None
        if payload is not None:
            report.health.resumed_stages.append(phase)
        else:
            payload = compute()
            if store is not None and not report.health.degraded:
                store.save(phase, payload)
        return restore(payload)

    def _stage(self, report: PipelineReport, name: str, body):
        """Run ``body(timing)`` as the stage ``name`` and book it once.

        The body is one guarded step: one attempt that fires the
        ``stage:<name>`` point; an isolated stage (per :data:`STAGES`)
        must also finish within ``stage_timeout``.  The timing (injected
        seconds included) is booked whether or not the stage fails — in
        ``report.timings``, the span, ``pipeline_stage_seconds`` and the
        success/failed counter — and a failure is marked
        ``failed: <ExcType>`` in the timing and span and degraded in
        ``report.health``.  Returns what the body returned.  A failed
        isolated stage returns None (the caller keeps a source's output
        only if its whole stage held, deadline included); any other
        failure, and every interrupt, propagates.
        """
        isolated = STAGES[name]
        cfg = self.config
        policy = RetryPolicy(
            max_attempts=1, timeout=cfg.stage_timeout if isolated else None
        )
        timing = StageTiming(name, 0.0)
        span = self.tracer.span(name)
        started = time.perf_counter()
        injected, failure = 0.0, None
        try:
            result, record = policy.call(
                f"stage:{name}", 0, lambda: body(timing), plan=cfg.fault_plan
            )
            injected = record.injected_seconds
            return result
        except RetryExhaustedError as exhausted:
            # Book the stage's own failure, not the one-attempt budget
            # it exhausted.
            injected = exhausted.record.injected_seconds
            failure = exhausted.__cause__
            if isolated:
                return None
            raise failure from None
        except BaseException as interrupt:  # booked, never suppressed
            failure = interrupt
            raise
        finally:
            timing.seconds = time.perf_counter() - started + injected
            if failure is not None:
                marker = f"failed: {type(failure).__name__}"
                timing.detail = (
                    f"{timing.detail}; {marker}" if timing.detail else marker
                )
                report.health.mark_degraded(
                    name, f"{type(failure).__name__}: {failure}"
                )
            report.timings.append(timing)
            span.end(
                detail=timing.detail, failed=failure is not None
            ).seconds = timing.seconds
            self.metrics.histogram(
                "pipeline_stage_seconds", stage=name
            ).observe(timing.seconds)
            outcome = "failed" if failure is not None else "success"
            self.metrics.counter(
                f"pipeline_stage_{outcome}_total", stage=name
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
        metrics.gauge("fusion_components").set(shard_stats.components)
        metrics.gauge("fusion_largest_component_claims").set(
            shard_stats.largest_claims
        )
        component_sizes = metrics.histogram("fusion_component_claims")
        for size in shard_stats.component_claims:
            component_sizes.observe(size)

    # ------------------------------------------------------------------
    def _run_extraction(self, report: PipelineReport) -> dict:
        """Stages 1-5: run the four extractors in pipeline order.

        Returns the extraction checkpoint's payload, the DOM extractor's
        mention-surface → class map (used by joint entity resolution)
        among it.  Every stage is isolated, so one crashing extractor
        degrades its source instead of killing the run.
        """
        # -- 1. KB snapshots ------------------------------------------------
        kb_output = self._stage(report, "kb-extraction", self._extract_kb)
        if kb_output is not None:
            self.outputs["kb"] = kb_output

        self.entity_index = (
            self._set_e_index() if kb_output is not None else {}
        )

        # -- 2. Query stream (extraction needs Set_E) ----------------------
        query_output = None
        query = self._stage(report, "query-stream", self._extract_querystream)
        if query is not None:
            query_output, report.query_stats = query
            self.outputs["querystream"] = query_output

        # -- 3. Seed sets --------------------------------------------------
        seed_outputs = [
            output for output in (kb_output, query_output) if output is not None
        ]
        self.seeds = build_seed_sets(seed_outputs, self.world.classes())
        report.seed_sizes = {
            class_name: len(seed) for class_name, seed in self.seeds.items()
        }

        # -- 4. DOM extraction ---------------------------------------------
        mention_classes: dict[str, str] = {}
        dom = self._stage(report, "dom-extraction", self._extract_dom)
        if dom is not None:
            self.outputs["dom"], mention_classes = dom

        # -- 5. Web-text extraction ----------------------------------------
        kb_triples = kb_output.triples if kb_output is not None else []
        text_output = self._stage(
            report,
            "webtext-extraction",
            lambda timing: self._extract_webtext(timing, kb_triples),
        )
        if text_output is not None:
            self.outputs["webtext"] = text_output
        return {
            "outputs": self.outputs,
            "seeds": self.seeds,
            "entity_index": self.entity_index,
            "mention_classes": mention_classes,
            "seed_sizes": report.seed_sizes,
            "query_stats": report.query_stats,
            "quarantine": self.quarantine,
        }

    def _guard(self, source: str, records, valid, start_index: int = 0):
        """Divert ``source``'s invalid records into the run's quarantine."""
        return guard_records(
            records,
            valid,
            self.quarantine,
            source,
            plan=self.config.fault_plan,
            start_index=start_index,
        )

    def _extract_kb(self, timing: StageTiming):
        """Stage 1: extract/combine the claims of the KB snapshots."""
        kb_output = combine_kb_outputs(
            [KbExtractor(kb).extract() for kb in self._source("kb_pair")]
        )
        timing.detail = f"{len(kb_output.triples)} claims"
        return kb_output

    def _extract_querystream(self, timing: StageTiming):
        """Stage 2: generate the query stream, extract credible attributes."""
        cfg = self.config
        log = self._guard(
            "querystream",
            generate_query_log(self.world, cfg.querylog),
            _valid_query_record,
        )
        timing.detail = f"{len(log)} records"
        extractor = QueryStreamExtractor(self.entity_index)
        return extractor.extract(log)

    def _extract_dom(self, timing: StageTiming):
        """Stage 4: run Algorithm 1 over the guarded websites."""
        cfg = self.config
        sites = []
        page_index = 0
        for site in self._source("websites"):
            pages = self._guard(
                "dom", site.pages, _valid_page, start_index=page_index
            )
            sites.append(replace(site, pages=pages))
            page_index += len(site.pages)
        extractor = DomTreeExtractor(
            self.entity_index,
            self.seeds,
            DomExtractorConfig(allow_mention_anchors=cfg.discover_new_entities),
        )
        output = extractor.extract(sites)
        timing.detail = f"{len(output.triples)} claims"
        return output, extractor.mention_classes

    def _extract_webtext(self, timing: StageTiming, kb_triples: list):
        """Stage 5: run the seed-driven extractor over the Web texts."""
        documents = self._guard(
            "webtext", self._source("webtext"), _valid_document
        )
        extractor = WebTextExtractor(self.entity_index, self.seeds, kb_triples)
        extractor.learn(documents)
        output = extractor.extract(documents)
        timing.detail = f"{len(output.triples)} claims"
        return output

    def _prepare_claims(
        self, report: PipelineReport, mention_classes: dict[str, str]
    ) -> dict:
        """Stages 6-7 on the extracted claims (joint entity resolution
        first, when on); returns the claims checkpoint's payload."""
        cfg = self.config
        all_triples = [
            scored
            for output in self.outputs.values()
            for scored in output.triples
        ]
        if cfg.discover_new_entities:
            all_triples, report.entity_resolution = self._stage(
                report, "entity-resolution",
                lambda timing: self._resolve_entities(
                    timing, all_triples, mention_classes
                ),
            )
        if cfg.resolve_attributes:
            all_triples = self._stage(
                report, "attribute-resolution",
                lambda timing: _counted(
                    timing, self._resolve_attributes(all_triples)
                ),
            )
        all_triples = self._stage(
            report, "confidence",
            lambda timing: _counted(timing, self._score(all_triples)),
        )
        return {
            "all_triples": all_triples,
            "outputs": self.outputs,
            "entity_resolution": report.entity_resolution,
        }

    def _resolve_entities(self, timing: StageTiming, triples, mention_classes):
        """Joint entity linking + discovery over the extracted claims."""
        resolver = JointEntityResolver(EntityLinker(self.entity_index))
        triples, outcome = resolve_mention_triples(
            triples, mention_classes, resolver
        )
        resolver.linker.publish_blocking_metrics(self.metrics)
        resolver.blocking_stats.publish(self.metrics)
        timing.detail = (
            f"{len(outcome.linked)} linked, "
            f"{len(outcome.clusters)} new entities"
        )
        return triples, outcome

    def _score(self, triples):
        """Stage 7: unified confidence for every claim and attribute."""
        scorer = ConfidenceScorer()
        triples = scorer.score_batch(triples)
        for output in self.outputs.values():
            for per_class in output.attributes.values():
                for record in per_class.values():
                    record.confidence = scorer.score_attribute(record)
        return triples

    def _fuse(self, timing: StageTiming, report: PipelineReport, triples):
        """Stage 8: fuse every claim with the combined method."""
        self.claims = ClaimSet.from_scored_triples(triples)
        fusion = self._build_fusion()
        fuse_started = time.perf_counter()
        result = fusion.fuse(self.claims)
        report.fusion_wall = time.perf_counter() - fuse_started
        self._publish_fusion_metrics(report, result, fusion)
        shard_stats = fusion.last_shard_stats
        report.fusion_shards = {
            "components": shard_stats.components,
            "largest_claims": shard_stats.largest_claims,
            "component_claims": shard_stats.component_claims,
        }
        if shard_stats.retries or shard_stats.timed_out_tasks:
            report.health.retry = {
                "attempts": shard_stats.attempts,
                "retries": shard_stats.retries,
                "timed_out_tasks": shard_stats.timed_out_tasks,
            }
        timing.detail = f"{len(self.claims)} claims, {len(result.truths)} items"
        return result

    def _augment(self, timing: StageTiming, report: PipelineReport, result):
        """Stage 10: augment a copy of the Freebase snapshot with the
        fused knowledge; the copy is ``self.freebase``."""
        if "kb" not in self.outputs:
            # The KB stage degraded away: there is no snapshot to
            # augment, but fusion/evaluation above still ran.
            report.health.mark_degraded(
                "augmentation", "skipped: kb snapshot unavailable"
            )
            timing.detail = "skipped"
            return None
        held = self._source("kb_pair")[0]
        self.freebase = replace(
            held,
            classes={
                name: replace(view) for name, view in held.classes.items()
            },
            store=held.store.copy(),
        )
        augmentation = augment_kb(
            self.freebase,
            list(self.outputs.values()),
            result,
            self.claims,
            class_of_subject=self._class_of_subject,
            new_entities=(
                report.entity_resolution.new_entities()
                if report.entity_resolution is not None
                else None
            ),
        )
        timing.detail = (
            f"{augmentation.new_facts} facts, "
            f"{augmentation.total_new_attributes()} attributes, "
            f"{augmentation.new_entities} entities"
        )
        return augmentation

    # ------------------------------------------------------------------
    def _restore_extraction(
        self, report: PipelineReport, payload: dict
    ) -> dict[str, str]:
        """Take extraction state from a payload (a no-op on this run's own).

        Stage timings are deliberately not restored: a resumed report
        shows no extraction timings, which is the visible signal the
        stages were skipped.
        """
        self.outputs = dict(payload["outputs"])
        self.seeds = payload["seeds"]
        self.entity_index = payload["entity_index"]
        self.quarantine = payload["quarantine"]
        report.seed_sizes = payload["seed_sizes"]
        report.query_stats = payload["query_stats"]
        return payload["mention_classes"]

    def _restore_claims(self, report: PipelineReport, payload: dict) -> list:
        """Take the claims payload's state; returns the scored claims."""
        self.outputs = dict(payload["outputs"])
        report.entity_resolution = payload["entity_resolution"]
        report.health.active_sources = sorted(self.outputs)
        return payload["all_triples"]

    # ------------------------------------------------------------------
    def _set_e_index(self):
        """Set_E: representative entities of the Freebase snapshot."""
        index: dict[str, object] = {}
        for view in self._source("kb_pair")[0].classes.values():
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

    def _build_fusion(self) -> KnowledgeFusion:
        """The combined fusion method, configured from this pipeline;
        the world's catalogs say which attribute is functional."""
        functional: dict[str, bool] = {}
        for class_name in self.world.classes():
            for spec in self.world.catalogs[class_name].attributes:
                functional.setdefault(spec.name, spec.functional)
        cfg = self.config
        return KnowledgeFusion(
            hierarchy=self.world.hierarchy,
            functional_of=lambda predicate: functional.get(predicate, False),
            tolerance=cfg.fusion_tolerance,
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
    # Serving the built KB.

    def _build_claim_store(self):
        """A :class:`TripleStore`: on segments when ``storage_dir`` is set.

        A set ``storage_dir`` opens (or creates) the LSM segment
        directory there, wiring this run's metrics registry and fault
        plan through to the backend so ``storage_*`` metrics and the
        ``storage:flush``/``storage:compaction`` chaos scopes work
        end-to-end; delta journal writes then become memtable inserts
        that flush to segments at ``memtable_limit``.  Without one the
        store is the memory backend.
        """
        from repro.rdf.store import TripleStore

        cfg = self.config
        if cfg.storage_dir:
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

    def _prime_incremental(self):
        """Build and prime the incremental engine on ``all_triples``."""
        # serve() gets here without a run() (drift runs, the e2e
        # benchmark), so the config has not been looked at yet.
        cfg = self.config
        cfg.validate()
        if self.all_triples is None:
            raise PipelineError(
                "serve() needs claims: call run() first (run(resume=True) "
                "restores them from a checkpoint_dir)"
            )
        triple_store = self._build_claim_store()
        triple_store.add_all(self.all_triples)
        return self._build_fusion().begin_incremental(triple_store)

    def serve(self):
        """Build a :class:`~repro.serving.server.KBServer` over this run.

        The one way to change the built KB: deltas are published to the
        server and applied by its stream consumer.  Primes the
        incremental engine from the last ``run()`` if needed (a fresh
        process restores that run first, with ``run(resume=True)``) and
        reuses it until the next ``run()``, then hands it to a server
        with its own event log whose retry policy, metrics and fault
        plan come from the pipeline config.  Readers pin immutable
        versions while published deltas commit — see
        :mod:`repro.serving`.
        """
        from repro.serving.server import KBServer

        if self._engine is None:
            self._engine = self._prime_incremental()
        cfg = self.config
        return KBServer(
            self._engine,
            retry=cfg.retry,
            metrics=self.metrics,
            fault_plan=cfg.fault_plan,
        )

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

