"""Per-layer attribution from outside the program.

One table of boundaries ``(layer, owner, attribute)`` names the public
callables through which work enters each layer.  :func:`tracing` swaps
every one of them for a wrapper that records a span (name, start, end,
parent — a :class:`repro.obs.SpanTracer` tree, one per workload run)
plus counts taken from the call's arguments and result, and restores
the originals on exit, whatever the workload did.  Nothing under
``src/`` is edited; functions ``core/pipeline.py`` imported by name
are patched in that module's namespace, where its calls look them up.

A span is named ``<layer>:<callable>``.  A layer's ``busy_s`` is the
summed duration of its outermost spans (a ``scan_subject`` span and
the ``lookup`` spans under it count once); its ``self_s`` is the
duration of all its spans minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "Boundary",
    "LAYER_METRICS",
    "TraceSummary",
    "boundaries",
    "layer_metrics",
    "summarize",
    "tracing",
]

@dataclass(frozen=True, slots=True)
class Boundary:
    """One patched callable: where a layer's work enters."""

    layer: str
    owner: object  # a module or a class
    attribute: str
    # Called after the wrapped call as count(counts, args, kwargs,
    # result); bumps keys of the shared counts dict.
    count: Callable | None = None
    # Fire ``count`` only when no span of the same layer encloses this
    # one (KnowledgeFusion.fuse → MultiTruth.fuse is one fuse).
    outermost_only: bool = False

    @property
    def span_name(self) -> str:
        return f"{self.layer}:{self.attribute.strip('_')}"


def _bump(counts: dict, key: str, amount: float = 1) -> None:
    counts[key] = counts.get(key, 0) + amount


def _count_len(key: str, *, arg: int | None = None) -> Callable:
    """A count hook adding ``len()`` of one argument or of the result."""

    def hook(counts, args, kwargs, result):
        value = result if arg is None else args[arg]
        _bump(counts, key, len(value))

    return hook


def _count_websites(counts, args, kwargs, result):
    _bump(counts, "synth.records_out", sum(len(s.pages) for s in result))


def _count_extractor_output(prefix: str, records_key: str | None = None):
    """Count an extractor's input records and output claims.

    ``args[0]`` is ``self``; the records argument, when present, is
    ``args[1]``.  ``querystream`` returns ``(output, stats)``.
    """

    def hook(counts, args, kwargs, result):
        output = result[0] if isinstance(result, tuple) else result
        _bump(counts, f"{prefix}.claims_out", len(output.triples))
        if records_key is not None:
            records = args[1]
            size = (
                sum(len(site.pages) for site in records)
                if records_key == "pages_in"
                else len(records)
            )
            _bump(counts, f"{prefix}.{records_key}", size)

    return hook


def _count_fuse(counts, args, kwargs, result):
    _bump(counts, "fusion.claims_in", len(args[1]))
    _bump(counts, "fusion.items_out", len(result.truths))
    _bump(counts, "fusion.rounds", result.iterations)


def _count_delta_outcome(counts, args, kwargs, outcome):
    _bump(counts, "incremental.dirty_components", outcome.dirty_components)
    _bump(counts, "incremental.reused_components", outcome.reused_components)
    _bump(counts, "incremental.components", outcome.components)
    _bump(counts, "incremental.refused_claims", outcome.refused_claims)
    _bump(counts, "incremental.degenerate_deltas", int(outcome.degenerate))


def _count_step_outcome(counts, args, kwargs, outcome):
    if outcome is None:
        return
    _bump(counts, f"serving.server.{outcome.action}")
    _bump(counts, "serving.server.retries", outcome.attempts - 1)


def _count_rounds(counts, args, kwargs, rounds):
    _bump(counts, "serving.tenancy.rounds", rounds)


def _count_checkpoint(counts, args, kwargs, path):
    _bump(counts, "core.checkpoint.bytes", path.stat().st_size)


def boundaries() -> list[Boundary]:
    """The boundary table (imports ``repro`` on first use)."""
    from repro.core import pipeline as pipeline_mod
    from repro.core.checkpoint import CheckpointStore
    from repro.core.confidence import ConfidenceScorer
    from repro.entity.resolution import AttributeResolver
    from repro.extract.dom import DomTreeExtractor
    from repro.extract.kb import KbExtractor
    from repro.extract.querystream import QueryStreamExtractor
    from repro.extract.webtext import WebTextExtractor
    from repro.fusion.base import ClaimSet
    from repro.fusion.correlations import CorrelationEstimator
    from repro.fusion.hierarchy import HierarchicalFusion
    from repro.fusion.knowledge_fusion import KnowledgeFusion
    from repro.fusion.multitruth import MultiTruth
    from repro.incremental import engine as engine_mod
    from repro.incremental.engine import IncrementalFusion
    from repro.incremental.journal import DeltaJournal
    from repro.rdf import segments as segments_mod
    from repro.rdf.segments import SegmentBackend
    from repro.rdf.store import TripleStore
    from repro.serving.query import KBReader
    from repro.serving.server import KBServer
    from repro.serving.stream import EventLog
    from repro.serving.tenancy import TenantManager, TenantRuntime
    from repro.serving.version import VersionedKB

    pipeline_cls = pipeline_mod.KnowledgeBaseConstructionPipeline
    return [
        # -- batch path (names core/pipeline.py imported) --------------
        Boundary("core.pipeline", pipeline_cls, "run"),
        Boundary("synth", pipeline_mod, "build_kb_pair"),
        Boundary("synth", pipeline_mod, "generate_query_log",
                 _count_len("synth.records_out")),
        Boundary("synth", pipeline_mod, "generate_websites",
                 _count_websites),
        Boundary("synth", pipeline_mod, "generate_webtext",
                 _count_len("synth.records_out")),
        Boundary("extract.kb", KbExtractor, "extract",
                 _count_extractor_output("extract.kb")),
        Boundary("extract.kb", pipeline_mod, "combine_kb_outputs"),
        Boundary("extract.querystream", QueryStreamExtractor, "extract",
                 _count_extractor_output(
                     "extract.querystream", "records_in")),
        Boundary("extract.seeds", pipeline_mod, "build_seed_sets"),
        Boundary("extract.dom", DomTreeExtractor, "extract",
                 _count_extractor_output("extract.dom", "pages_in")),
        Boundary("extract.webtext", WebTextExtractor, "learn"),
        Boundary("extract.webtext", WebTextExtractor, "extract",
                 _count_extractor_output("extract.webtext", "docs_in")),
        Boundary("entity.resolution", pipeline_mod, "build_value_profiles",
                 _count_len("entity.resolution.claims_in", arg=0)),
        Boundary("entity.resolution", AttributeResolver, "run"),
        Boundary("entity.resolution", pipeline_mod, "apply_resolution"),
        Boundary("core.confidence", ConfidenceScorer, "score_batch"),
        Boundary("core.confidence", ConfidenceScorer, "score_attribute"),
        Boundary("evalx", pipeline_mod, "evaluate_fusion"),
        Boundary("core.augmentation", pipeline_mod, "augment_kb"),
        # -- fusion ----------------------------------------------------
        Boundary("fusion", ClaimSet, "from_scored_triples"),
        Boundary("fusion", KnowledgeFusion, "fuse", _count_fuse, True),
        Boundary("fusion", HierarchicalFusion, "fuse", _count_fuse, True),
        Boundary("fusion", MultiTruth, "fuse", _count_fuse, True),
        Boundary("fusion", CorrelationEstimator, "estimate"),
        Boundary("fusion", engine_mod, "shard_claims"),
        # -- incremental re-fusion and the claim store -----------------
        Boundary("incremental", IncrementalFusion, "prime"),
        Boundary("incremental", IncrementalFusion, "apply_delta",
                 _count_delta_outcome),
        Boundary("incremental", DeltaJournal, "apply"),
        Boundary("incremental", engine_mod, "canonical_claims"),
        Boundary("rdf.store", TripleStore, "add_all"),
        Boundary("rdf.store", TripleStore, "copy"),
        # -- serving ---------------------------------------------------
        Boundary("serving.stream", EventLog, "append"),
        Boundary("serving.stream", EventLog, "next_event"),
        Boundary("serving.stream", EventLog, "commit_offset"),
        Boundary("serving.stream", EventLog, "compact"),
        Boundary("serving.server", KBServer, "step", _count_step_outcome),
        Boundary("serving.version", VersionedKB, "commit"),
        Boundary("serving.query", KBReader, "lookup"),
        Boundary("serving.query", KBReader, "scan_subject"),
        Boundary("serving.query", KBReader, "scan_predicate"),
        Boundary("serving.query", KBReader, "top_entities"),
        # -- tenancy ---------------------------------------------------
        Boundary("serving.tenancy", TenantManager, "drain_fair",
                 _count_rounds),
        Boundary("serving.tenancy", TenantRuntime, "pump"),
        Boundary("serving.tenancy", TenantManager, "checkpoint_all"),
        Boundary("core.checkpoint", CheckpointStore, "save",
                 _count_checkpoint),
        Boundary("evalx", TenantManager, "eval_rows"),
        # -- segment storage -------------------------------------------
        Boundary("rdf.segments", SegmentBackend, "__init__"),
        Boundary("rdf.segments", SegmentBackend, "flush"),
        Boundary("rdf.segments", SegmentBackend, "compact"),
        Boundary("rdf.segments", SegmentBackend, "claims_for_item"),
        Boundary("rdf.segments", segments_mod, "build_segment_bytes",
                 _count_len("rdf.segments.bytes_written")),
    ]


def _wrap(raw, boundary: Boundary, tracer, counts: dict, depth: dict):
    """The recording wrapper for one boundary callable."""
    name = boundary.span_name
    layer = boundary.layer
    hook = boundary.count
    outermost_only = boundary.outermost_only

    @functools.wraps(raw)
    def wrapper(*args, **kwargs):
        handle = tracer.span(name)
        depth[layer] = depth.get(layer, 0) + 1
        try:
            result = raw(*args, **kwargs)
        except BaseException:
            depth[layer] -= 1
            handle.end(failed=True)
            raise
        depth[layer] -= 1
        handle.end()
        if hook is not None and not (outermost_only and depth[layer]):
            hook(counts, args, kwargs, result)
        return result

    return wrapper


@contextlib.contextmanager
def tracing(tracer, counts: dict, table: list[Boundary] | None = None):
    """Patch every boundary to record into ``tracer`` and ``counts``.

    A boundary whose attribute no longer exists raises before anything
    is patched — a renamed function must fail the run, not silently
    measure nothing.  Every patched attribute is restored on exit,
    also when the body raises.
    """
    table = boundaries() if table is None else table
    missing = [
        f"{b.layer}: {getattr(b.owner, '__name__', b.owner)}.{b.attribute}"
        for b in table
        if b.attribute not in vars(b.owner)
    ]
    if missing:
        raise LookupError(
            "trace boundaries no longer exist (rename them in "
            f"benchmarks/e2e/trace.py): {missing}"
        )
    depth: dict[str, int] = {}
    originals: list[tuple[object, str, object]] = []
    try:
        for boundary in table:
            raw = vars(boundary.owner)[boundary.attribute]
            originals.append((boundary.owner, boundary.attribute, raw))
            if isinstance(raw, staticmethod):
                patched = staticmethod(_wrap(
                    raw.__func__, boundary, tracer, counts, depth
                ))
            else:
                patched = _wrap(raw, boundary, tracer, counts, depth)
            setattr(boundary.owner, boundary.attribute, patched)
        yield
    finally:
        for owner, attribute, raw in reversed(originals):
            setattr(owner, attribute, raw)


# ----------------------------------------------------------------------
# Reading a finished trace.


@dataclass(slots=True)
class TraceSummary:
    """Per-layer and per-span totals of one trace tree."""

    busy: dict[str, float] = field(default_factory=dict)
    self_time: dict[str, float] = field(default_factory=dict)
    # span name -> durations of every span of that name, in start order
    spans: dict[str, list[float]] = field(default_factory=dict)
    # Self time of every span of one name (spans minus their children).
    span_self: dict[str, float] = field(default_factory=dict)
    root_seconds: float = 0.0

    def total(self, name: str) -> float:
        return sum(self.spans.get(name, ()))

    def calls(self, name: str) -> int:
        return len(self.spans.get(name, ()))

    def median(self, name: str) -> float:
        durations = self.spans.get(name)
        return statistics.median(durations) if durations else 0.0

    def layer_busy(self, prefix: str) -> float:
        """Busy seconds of one layer, or of a family like ``extract``."""
        return sum(
            seconds
            for layer, seconds in self.busy.items()
            if layer == prefix or layer.startswith(prefix + ".")
        )

    def layer_self(self, prefix: str) -> float:
        return sum(
            seconds
            for layer, seconds in self.self_time.items()
            if layer == prefix or layer.startswith(prefix + ".")
        )


def summarize(tracer) -> TraceSummary:
    """Fold a :class:`repro.obs.SpanTracer` tree into totals."""
    summary = TraceSummary()

    def visit(span, enclosing: frozenset[str]) -> None:
        layer = span.name.split(":", 1)[0]
        covered = sum(child.seconds for child in span.children)
        own = max(0.0, span.seconds - covered)
        summary.spans.setdefault(span.name, []).append(span.seconds)
        summary.span_self[span.name] = (
            summary.span_self.get(span.name, 0.0) + own
        )
        summary.self_time[layer] = summary.self_time.get(layer, 0.0) + own
        if layer not in enclosing:
            summary.busy[layer] = (
                summary.busy.get(layer, 0.0) + span.seconds
            )
        inner = enclosing | {layer}
        for child in span.children:
            visit(child, inner)

    for root in tracer.roots:
        summary.root_seconds += root.seconds
        visit(root, frozenset())
    return summary


def _series(snapshot, name: str) -> float:
    """Sum of one counter family over all its label sets."""
    if snapshot is None:
        return 0.0
    return sum(
        value
        for key, value in snapshot.counters.items()
        if key.split("{", 1)[0] == name
    )


def _gauge(snapshot, name: str) -> float:
    if snapshot is None:
        return 0.0
    return sum(
        value
        for key, value in snapshot.gauges.items()
        if key.split("{", 1)[0] == name
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Every per-layer metric: (name, unit, better).  ``layer_metrics``
#: must return exactly these names (checked there), and
#: ``BENCHMARK.json`` lists exactly these (checked by the self-tests).
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("synth.busy_s", "s", "lower"),
    ("synth.records_out", "count", "higher"),
    ("extract.kb.busy_s", "s", "lower"),
    ("extract.kb.claims_out", "count", "higher"),
    ("extract.querystream.busy_s", "s", "lower"),
    ("extract.querystream.records_in", "count", "lower"),
    ("extract.querystream.claims_out", "count", "higher"),
    ("extract.seeds.busy_s", "s", "lower"),
    ("extract.dom.busy_s", "s", "lower"),
    ("extract.dom.pages_in", "count", "lower"),
    ("extract.dom.claims_out", "count", "higher"),
    ("extract.webtext.busy_s", "s", "lower"),
    ("extract.webtext.docs_in", "count", "lower"),
    ("extract.webtext.claims_out", "count", "higher"),
    ("entity.resolution.busy_s", "s", "lower"),
    ("entity.resolution.claims_in", "count", "lower"),
    ("entity.blocking.scored_per_query", "ratio", "lower"),
    ("textproc.memo.hit_ratio", "ratio", "higher"),
    ("core.confidence.busy_s", "s", "lower"),
    ("evalx.busy_s", "s", "lower"),
    ("core.augmentation.busy_s", "s", "lower"),
    ("core.pipeline.self_s", "s", "lower"),
    ("fusion.busy_s", "s", "lower"),
    ("fusion.claims_in", "count", "lower"),
    ("fusion.items_out", "count", "higher"),
    ("fusion.rounds", "count", "lower"),
    ("incremental.prime_busy_s", "s", "lower"),
    ("incremental.apply_busy_s", "s", "lower"),
    ("incremental.apply_self_s", "s", "lower"),
    ("incremental.journal_busy_s", "s", "lower"),
    ("incremental.dirty_components", "count", "lower"),
    ("incremental.reused_components", "count", "higher"),
    ("incremental.reuse_ratio", "ratio", "higher"),
    ("incremental.refused_claims", "count", "lower"),
    ("incremental.degenerate_deltas", "count", "lower"),
    ("rdf.store.load_busy_s", "s", "lower"),
    ("rdf.store.copy_busy_s", "s", "lower"),
    ("rdf.store.copy_calls", "count", "lower"),
    ("serving.stream.busy_s", "s", "lower"),
    ("serving.stream.events", "count", "higher"),
    ("serving.stream.rejected", "count", "lower"),
    ("serving.stream.compactions", "count", "lower"),
    ("serving.server.step_busy_s", "s", "lower"),
    ("serving.server.step_self_s", "s", "lower"),
    ("serving.server.applied", "count", "higher"),
    ("serving.server.skipped", "count", "lower"),
    ("serving.server.poisoned", "count", "lower"),
    ("serving.server.retries", "count", "lower"),
    ("serving.version.commit_busy_s", "s", "lower"),
    ("serving.version.commits", "count", "higher"),
    ("serving.tenancy.drain_busy_s", "s", "lower"),
    ("serving.tenancy.pump_self_s", "s", "lower"),
    ("serving.tenancy.rounds", "count", "lower"),
    ("serving.tenancy.round_p50_ms", "ms", "lower"),
    ("serving.tenancy.deferred_publishes", "count", "lower"),
    ("serving.tenancy.faults", "count", "lower"),
    ("core.checkpoint.save_busy_s", "s", "lower"),
    ("core.checkpoint.bytes", "bytes", "lower"),
    ("evalx.tenant_eval_busy_s", "s", "lower"),
    ("serving.query.reads", "count", "higher"),
    ("serving.query.lookup_p50_us", "us", "lower"),
    ("serving.query.scan_subject_p50_us", "us", "lower"),
    ("serving.query.scan_predicate_p50_us", "us", "lower"),
    ("serving.query.topk_p50_us", "us", "lower"),
    ("serving.query.first_topk_ms", "ms", "lower"),
    ("serving.query.first_scan_predicate_ms", "ms", "lower"),
    ("rdf.segments.flush_busy_s", "s", "lower"),
    ("rdf.segments.flushes", "count", "lower"),
    ("rdf.segments.compact_busy_s", "s", "lower"),
    ("rdf.segments.compactions", "count", "lower"),
    ("rdf.segments.bytes_written", "bytes", "lower"),
    ("rdf.segments.write_amp", "ratio", "lower"),
    ("rdf.segments.segments_live", "count", "lower"),
    ("rdf.segments.open_busy_s", "s", "lower"),
    ("rdf.segments.item_read_p50_us", "us", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("host.calib_s", "s", "lower"),
)


def layer_metrics(
    summary: TraceSummary,
    counts: dict,
    snapshot,
    *,
    section_seconds: float,
    untraced_seconds: float,
    calib_seconds: float,
    stored_bytes: int = 0,
) -> dict[str, float]:
    """Every per-layer metric of one traced run, by name.

    ``snapshot`` is the :class:`repro.obs.MetricsSnapshot` of the
    registry the workload handed to the program; ``section_seconds`` /
    ``untraced_seconds`` are the walls of the same section with and
    without the wrappers; ``stored_bytes`` is what the segment
    directory held at the end (0 without one).
    """
    s, c = summary, counts

    def count(key: str) -> float:
        return float(c.get(key, 0))

    def p50_us(name: str) -> float:
        return s.median(name) * 1e6

    def first_ms(name: str) -> float:
        durations = s.spans.get(name)
        return durations[0] * 1e3 if durations else 0.0

    reads = sum(
        s.calls(f"serving.query:{kind}")
        for kind in (
            "lookup", "scan_subject", "scan_predicate", "top_entities"
        )
    )
    values = {
        "synth.busy_s": s.layer_busy("synth"),
        "synth.records_out": count("synth.records_out"),
        "extract.kb.busy_s": s.layer_busy("extract.kb"),
        "extract.kb.claims_out": count("extract.kb.claims_out"),
        "extract.querystream.busy_s": s.layer_busy("extract.querystream"),
        "extract.querystream.records_in": count(
            "extract.querystream.records_in"),
        "extract.querystream.claims_out": count(
            "extract.querystream.claims_out"),
        "extract.seeds.busy_s": s.layer_busy("extract.seeds"),
        "extract.dom.busy_s": s.layer_busy("extract.dom"),
        "extract.dom.pages_in": count("extract.dom.pages_in"),
        "extract.dom.claims_out": count("extract.dom.claims_out"),
        "extract.webtext.busy_s": s.layer_busy("extract.webtext"),
        "extract.webtext.docs_in": count("extract.webtext.docs_in"),
        "extract.webtext.claims_out": count("extract.webtext.claims_out"),
        "entity.resolution.busy_s": s.layer_busy("entity.resolution"),
        "entity.resolution.claims_in": count("entity.resolution.claims_in"),
        "entity.blocking.scored_per_query": _ratio(
            _series(snapshot, "blocking_tier3_scored_total"),
            _series(snapshot, "blocking_queries_total"),
        ),
        "textproc.memo.hit_ratio": _ratio(
            _series(snapshot, "simcache_hits_total"),
            _series(snapshot, "simcache_hits_total")
            + _series(snapshot, "simcache_misses_total"),
        ),
        "core.confidence.busy_s": s.layer_busy("core.confidence"),
        "evalx.busy_s": s.layer_busy("evalx"),
        "core.augmentation.busy_s": s.layer_busy("core.augmentation"),
        "core.pipeline.self_s": s.layer_self("core.pipeline"),
        "fusion.busy_s": s.layer_busy("fusion"),
        "fusion.claims_in": count("fusion.claims_in"),
        "fusion.items_out": count("fusion.items_out"),
        "fusion.rounds": count("fusion.rounds"),
        "incremental.prime_busy_s": s.total("incremental:prime"),
        "incremental.apply_busy_s": s.total("incremental:apply_delta"),
        "incremental.apply_self_s": s.span_self.get(
            "incremental:apply_delta", 0.0),
        "incremental.journal_busy_s": s.total("incremental:apply"),
        "incremental.dirty_components": count(
            "incremental.dirty_components"),
        "incremental.reused_components": count(
            "incremental.reused_components"),
        "incremental.reuse_ratio": _ratio(
            count("incremental.reused_components"),
            count("incremental.components"),
        ),
        "incremental.refused_claims": count("incremental.refused_claims"),
        "incremental.degenerate_deltas": count(
            "incremental.degenerate_deltas"),
        "rdf.store.load_busy_s": s.total("rdf.store:add_all"),
        "rdf.store.copy_busy_s": s.total("rdf.store:copy"),
        "rdf.store.copy_calls": float(s.calls("rdf.store:copy")),
        "serving.stream.busy_s": s.layer_busy("serving.stream"),
        "serving.stream.events": float(s.calls("serving.stream:append")),
        "serving.stream.rejected": _series(
            snapshot, "stream_rejected_total"),
        "serving.stream.compactions": float(
            s.calls("serving.stream:compact")),
        "serving.server.step_busy_s": s.total("serving.server:step"),
        "serving.server.step_self_s": s.span_self.get(
            "serving.server:step", 0.0),
        "serving.server.applied": count("serving.server.applied"),
        "serving.server.skipped": count("serving.server.skipped"),
        "serving.server.poisoned": count("serving.server.poisoned"),
        "serving.server.retries": count("serving.server.retries"),
        "serving.version.commit_busy_s": s.total("serving.version:commit"),
        "serving.version.commits": float(
            s.calls("serving.version:commit")),
        "serving.tenancy.drain_busy_s": s.total(
            "serving.tenancy:drain_fair"),
        "serving.tenancy.pump_self_s": s.span_self.get(
            "serving.tenancy:pump", 0.0),
        "serving.tenancy.rounds": count("serving.tenancy.rounds"),
        "serving.tenancy.round_p50_ms": s.median(
            "serving.tenancy:drain_fair") * 1e3,
        "serving.tenancy.deferred_publishes": _series(
            snapshot, "tenant_publish_deferred_total"),
        "serving.tenancy.faults": _series(snapshot, "tenant_faults_total"),
        "core.checkpoint.save_busy_s": s.total("core.checkpoint:save"),
        "core.checkpoint.bytes": count("core.checkpoint.bytes"),
        "evalx.tenant_eval_busy_s": s.total("evalx:eval_rows"),
        "serving.query.reads": float(reads),
        "serving.query.lookup_p50_us": p50_us("serving.query:lookup"),
        "serving.query.scan_subject_p50_us": p50_us(
            "serving.query:scan_subject"),
        "serving.query.scan_predicate_p50_us": p50_us(
            "serving.query:scan_predicate"),
        "serving.query.topk_p50_us": p50_us("serving.query:top_entities"),
        "serving.query.first_topk_ms": first_ms(
            "serving.query:top_entities"),
        "serving.query.first_scan_predicate_ms": first_ms(
            "serving.query:scan_predicate"),
        "rdf.segments.flush_busy_s": s.total("rdf.segments:flush"),
        "rdf.segments.flushes": _series(snapshot, "storage_flushes_total"),
        "rdf.segments.compact_busy_s": s.total("rdf.segments:compact"),
        "rdf.segments.compactions": _series(
            snapshot, "storage_compactions_total"),
        "rdf.segments.bytes_written": count("rdf.segments.bytes_written"),
        "rdf.segments.write_amp": _ratio(
            count("rdf.segments.bytes_written"), stored_bytes),
        "rdf.segments.segments_live": _gauge(snapshot, "storage_segments"),
        "rdf.segments.open_busy_s": s.total("rdf.segments:init"),
        "rdf.segments.item_read_p50_us": p50_us(
            "rdf.segments:claims_for_item"),
        "trace.unattributed_share": max(
            0.0, 1.0 - _ratio(s.root_seconds, section_seconds)),
        "trace.overhead_ratio": _ratio(section_seconds, untraced_seconds),
        "host.calib_s": calib_seconds,
    }
    expected = [name for name, _unit, _better in LAYER_METRICS]
    if list(values) != expected:
        raise AssertionError(
            "layer_metrics and LAYER_METRICS disagree: "
            f"{sorted(set(values) ^ set(expected))}"
        )
    return values
