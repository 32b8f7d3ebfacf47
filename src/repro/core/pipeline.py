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

Stages
    Every timed stage — 1, 2, 4, 5, 5b (joint entity resolution, when
    ``discover_new_entities`` is on) and 6–10 — is booked by
    :class:`_timed`: timing, health, span and metrics in one place.
    The four extraction stages run their body as one
    :meth:`~repro.faults.RetryPolicy.call` (one attempt,
    ``stage_timeout`` its deadline).  The configuration lives in
    :mod:`repro.core.config`, the drift / copying / tenant scenario
    runs in :mod:`repro.core.scenarios`.

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
from dataclasses import dataclass, field

from repro.core.augmentation import AugmentationReport, augment_kb
from repro.core.checkpoint import CheckpointStore, config_fingerprint
from repro.core.config import PipelineConfig
from repro.core.quarantine import Quarantine, guard_records
from repro.errors import PipelineError, RetryExhaustedError
from repro.faults import FaultPlan, InjectedFault, RetryPolicy, fire
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
        """Forget what the extraction stages of a previous run left."""
        self.freebase = None
        self.dbpedia = None
        self.entity_index: dict[str, object] = {}
        self.outputs: dict[str, ExtractorOutput] = {}
        self.seeds: dict[str, SeedSet] = {}

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
                    all_triples = self._resolve_attributes(all_triples)
                    timing.detail = f"{len(all_triples)} claims"

            # -- 7. Confidence scoring ------------------------------------
            with self._stage_timer(report, "confidence") as timing:
                scorer = ConfidenceScorer()
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
            self.claims = ClaimSet.from_scored_triples(all_triples)
            functional_of = self._select_functional_oracle(self.claims)
            fusion = self._build_fusion(functional_of)
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
            evaluated = self._remap_for_evaluation(
                result, report.entity_resolution
            )
            report.fusion_report = evaluate_fusion(world, evaluated)

        # -- 10. Augmentation ------------------------------------------------
        with self._stage_timer(report, "augmentation") as timing:
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
    # Observability helpers.

    def _stage_timer(self, report: PipelineReport, stage: str) -> "_timed":
        """A ``_timed`` wired to this run's tracer, metrics and faults."""
        return _timed(
            report,
            stage,
            tracer=self.tracer,
            metrics=self.metrics,
            fault_plan=self.config.fault_plan,
        )

    def _isolated_stage(self, report: PipelineReport, stage: str, body):
        """Run ``body(timing)`` as one isolated extraction stage.

        The body is one guarded step: one attempt that fires the
        ``stage:<name>`` point and must finish within ``stage_timeout``.
        Returns what the body returned, or None when the stage failed:
        it raised, an injected fault fired, or it overran the deadline.
        ``_timed`` books the underlying failure as degraded, and the
        caller keeps a source's output only if its whole stage held.
        """
        cfg = self.config
        policy = RetryPolicy(max_attempts=1, timeout=cfg.stage_timeout)
        timer = _timed(
            report, stage, isolated=True,
            tracer=self.tracer, metrics=self.metrics,
        )
        result = None
        with timer as timing:
            try:
                result, record = policy.call(
                    f"stage:{stage}",
                    0,
                    lambda: body(timing),
                    plan=cfg.fault_plan,
                )
            except RetryExhaustedError as exhausted:
                # Book the stage's own failure, not the one-attempt
                # budget it exhausted.
                timer.injected_seconds = exhausted.record.injected_seconds
                raise exhausted.__cause__ from None
            timer.injected_seconds = record.injected_seconds
        return None if timer.failed else result

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
    def _run_extraction(self, report: PipelineReport) -> dict[str, str]:
        """Stages 1-5: run the four extractors in pipeline order.

        Returns the DOM extractor's mention-surface → class map (used by
        joint entity resolution).  Every stage is isolated
        (:meth:`_isolated_stage`), so one crashing extractor degrades
        its source instead of killing the run.
        """
        # -- 1. KB snapshots ------------------------------------------------
        kb_output = None
        kb = self._isolated_stage(report, "kb-extraction", self._extract_kb)
        if kb is not None:
            self.freebase, self.dbpedia, kb_output = kb
            self.outputs["kb"] = kb_output

        self.entity_index = (
            self._set_e_index() if self.freebase is not None else {}
        )

        # -- 2. Query stream (extraction needs Set_E) ----------------------
        query_output = None
        query = self._isolated_stage(
            report, "query-stream", self._extract_querystream
        )
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
        dom = self._isolated_stage(
            report, "dom-extraction", self._extract_dom
        )
        if dom is not None:
            self.outputs["dom"], mention_classes = dom

        # -- 5. Web-text extraction ----------------------------------------
        kb_triples = kb_output.triples if kb_output is not None else []
        text_output = self._isolated_stage(
            report,
            "webtext-extraction",
            lambda timing: self._extract_webtext(timing, kb_triples),
        )
        if text_output is not None:
            self.outputs["webtext"] = text_output
        return mention_classes

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
        """Stage 1: build the KB snapshots and extract/combine their claims."""
        freebase, dbpedia = build_kb_pair(self.world, self.config.kb_pair)
        kb_output = combine_kb_outputs(
            [KbExtractor(freebase).extract(), KbExtractor(dbpedia).extract()]
        )
        timing.detail = f"{len(kb_output.triples)} claims"
        return freebase, dbpedia, kb_output

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
        """Stage 4: generate websites and run Algorithm 1 over them."""
        cfg = self.config
        sites = generate_websites(self.world, cfg.websites)
        page_index = 0
        for site in sites:
            page_count = len(site.pages)
            site.pages = self._guard(
                "dom", site.pages, _valid_page, start_index=page_index
            )
            page_index += page_count
        extractor = DomTreeExtractor(
            self.entity_index,
            self.seeds,
            DomExtractorConfig(allow_mention_anchors=cfg.discover_new_entities),
        )
        output = extractor.extract(sites)
        timing.detail = f"{len(output.triples)} claims"
        return output, extractor.mention_classes

    def _extract_webtext(self, timing: StageTiming, kb_triples: list):
        """Stage 5: generate Web texts and run the seed-driven extractor."""
        cfg = self.config
        documents = self._guard(
            "webtext",
            generate_webtext(self.world, cfg.webtext),
            _valid_document,
        )
        extractor = WebTextExtractor(self.entity_index, self.seeds, kb_triples)
        extractor.learn(documents)
        output = extractor.extract(documents)
        timing.detail = f"{len(output.triples)} claims"
        return output

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
        if self.config.functionality_source == "estimated":
            from repro.fusion.functionality import (
                functional_oracle_from_claims,
            )

            return functional_oracle_from_claims(claims)
        return self._functional_oracle()

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
            functional_of = self._functional_oracle()

        fusion = self._build_fusion(functional_of)
        triple_store = self._build_claim_store()
        triple_store.add_all(self.all_triples)
        return fusion.begin_incremental(
            triple_store, functional_refresh=functional_refresh
        )

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


class _timed:
    """Context manager booking one pipeline stage.

    On entry it fires the ``stage:<name>`` point of ``fault_plan``, if
    any, and starts the clock; injected slow seconds (and what the
    caller adds to ``injected_seconds``) count as measured time.  On
    exit it books the stage once, everywhere: the timing in
    ``report.timings``, the span, ``pipeline_stage_seconds`` and the
    success/failed counter.  The timing is appended whether or not the
    block raises: a failed stage still spent the time, and dropping it
    made degraded-run reports under-count wall-clock work.  A failure
    is marked in the timing detail (``failed: <ExcType>``), in
    ``report.health``, in the span status and in
    ``pipeline_stage_failed_total``; ``failed`` says so afterwards.

    ``isolated`` is what happens next.  False (a stage everything
    downstream needs): the exception propagates.  True (an extraction
    stage): it is suppressed, and the run goes on without that source.
    """

    def __init__(
        self,
        report: PipelineReport,
        stage: str,
        *,
        isolated: bool = False,
        tracer: SpanTracer | None = None,
        metrics: MetricsRegistry | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.report = report
        self.stage = stage
        self.timing = StageTiming(stage, 0.0)
        self.failed = False
        self.injected_seconds = 0.0
        self._isolated = isolated
        self._tracer = tracer
        self._metrics = metrics
        self._fault_plan = fault_plan
        self._span = None

    def __enter__(self) -> StageTiming:
        if self._tracer is not None:
            self._span = self._tracer.span(self.stage)
        self._start = time.perf_counter()
        try:
            self.injected_seconds = fire(
                self._fault_plan, f"stage:{self.stage}"
            )
        except InjectedFault as fault:
            self._book(time.perf_counter() - self._start, fault)
            raise
        return self.timing

    def __exit__(self, exc_type, exc, tb) -> bool:
        seconds = time.perf_counter() - self._start + self.injected_seconds
        self._book(seconds, exc)
        return self._isolated and isinstance(exc, Exception)

    def _book(self, seconds: float, exc: BaseException | None) -> None:
        timing = self.timing
        timing.seconds = seconds
        self.failed = exc is not None
        if self.failed:
            marker = f"failed: {type(exc).__name__}"
            timing.detail = (
                f"{timing.detail}; {marker}" if timing.detail else marker
            )
            self.report.health.mark_degraded(
                self.stage, f"{type(exc).__name__}: {exc}"
            )
        self.report.timings.append(timing)
        if self._span is not None:
            span = self._span.end(detail=timing.detail, failed=self.failed)
            span.seconds = timing.seconds
        if self._metrics is not None:
            self._metrics.histogram(
                "pipeline_stage_seconds", stage=self.stage
            ).observe(timing.seconds)
            outcome = (
                "pipeline_stage_failed_total"
                if self.failed else "pipeline_stage_success_total"
            )
            self._metrics.counter(outcome, stage=self.stage).inc()
