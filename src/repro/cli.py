"""Command-line interface.

``python -m repro <command>`` exposes the main entry points without
writing any code:

* ``pipeline``   — run the end-to-end framework, print the report,
  optionally serve claim deltas on top and export the fused KB;
* ``drift``     — run a drifting-world scenario through the serving
  stream and print per-epoch freshness metrics;
* ``copying``   — fuse a source-copying world with correlations off
  vs on and print the copied-error suppression table;
* ``tenants``   — ingest and serve a multi-tenant world mix on one
  shared runtime and print the per-tenant eval table;
* ``query``     — run a single-pattern query against an exported
  claims TSV file.

The paper's tables are printed by ``benchmarks/bench_table{1,2,3}.py``
and the fusion-method comparison by ``examples/truth_discovery.py``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Generating Actionable Knowledge from Big "
            "Data' (SIGMOD 2015 PhD Symposium)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pipeline = sub.add_parser(
        "pipeline", help="run the end-to-end KB-construction framework"
    )
    pipeline.add_argument("--seed", type=int, default=7)
    pipeline.add_argument(
        "--query-scale", type=float, default=0.002,
        help="query-stream scale relative to the paper's 29.3M records",
    )
    pipeline.add_argument(
        "--discover-entities", action="store_true",
        help="enable new-entity creation from unknown page headings",
    )
    pipeline.add_argument(
        "--export", metavar="PATH",
        help="write the augmented Freebase snapshot's claims as TSV",
    )
    pipeline.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry a failed task of the fusion MapReduce job (one per "
        "connected component of the claim graph) up to N extra times "
        "with exponential backoff; the fused output is the same",
    )
    pipeline.add_argument(
        "--stage-timeout", type=float, default=None, metavar="SECONDS",
        help="deadline per extraction stage; overruns degrade the stage "
        "instead of aborting the run",
    )
    pipeline.add_argument(
        "--min-sources", type=int, default=1, metavar="N",
        help="abort unless at least N extractor outputs survive "
        "extraction (degraded stages are dropped, not fatal)",
    )
    pipeline.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="spill extraction/claims stage outputs to DIR so a crashed "
        "run can resume",
    )
    pipeline.add_argument(
        "--resume", action="store_true",
        help="restore completed stages from --checkpoint-dir instead of "
        "recomputing (stale checkpoints are ignored)",
    )
    pipeline.add_argument(
        "--storage-dir", metavar="DIR",
        help="serve the KB from mmapped LSM segment files under DIR "
        "instead of in-memory dicts (verdicts identical either way)",
    )
    pipeline.add_argument(
        "--memtable-limit", type=int, default=8192, metavar="N",
        help="memtable entries that trigger a segment flush",
    )
    pipeline.add_argument(
        "--apply-delta", metavar="PATH", action="append", default=[],
        help="after the run, publish a JSON claim delta (added/retracted "
        "triples) to the serving layer, which re-fuses only the dirty "
        "connected components and commits a new KB version; "
        "repeatable, applied in order",
    )
    pipeline.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the run's metric snapshot (counters/gauges/"
        "histograms) as JSON",
    )
    pipeline.add_argument(
        "--trace-out", metavar="FILE",
        help="write the run's span trace tree as JSON",
    )

    drift = sub.add_parser(
        "drift",
        help="run a drifting-world scenario through the serving stream",
    )
    drift.add_argument("--seed", type=int, default=7)
    drift.add_argument("--items", type=int, default=40)
    drift.add_argument("--sources", type=int, default=6)
    drift.add_argument("--epochs", type=int, default=5)
    drift.add_argument(
        "--value-change-rate", type=float, default=0.25,
        help="per epoch: fraction of surviving items whose truth changes",
    )
    drift.add_argument(
        "--birth-rate", type=float, default=0.10,
        help="per epoch: new items as a fraction of the initial population",
    )
    drift.add_argument(
        "--death-rate", type=float, default=0.05,
        help="per epoch: fraction of live items retired",
    )
    drift.add_argument(
        "--rename-rate", type=float, default=0.05,
        help="per epoch: fraction of surviving items whose attribute "
        "is renamed",
    )
    drift.add_argument(
        "--json", metavar="FILE",
        help="write the deterministic scenario report as JSON",
    )
    drift.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the run's metric snapshot as JSON",
    )

    copying = sub.add_parser(
        "copying",
        help="fuse a source-copying world with correlations off vs on",
    )
    copying.add_argument("--seed", type=int, default=0)
    copying.add_argument("--items", type=int, default=80)
    copying.add_argument("--independents", type=int, default=4)
    copying.add_argument("--copiers", type=int, default=3)
    copying.add_argument(
        "--copy-fraction", type=float, default=0.9,
        help="chance a copier replicates any given victim claim",
    )
    copying.add_argument(
        "--victim-accuracy", type=float, default=0.5,
        help="the victim source's accuracy (its errors get copied)",
    )
    copying.add_argument(
        "--lag", type=int, default=1,
        help="with lag > 0 the victim corrects some errors after the "
        "copiers replicated them",
    )
    copying.add_argument(
        "--json", metavar="FILE",
        help="write the deterministic scenario report as JSON",
    )
    copying.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the run's metric snapshot as JSON",
    )

    tenants = sub.add_parser(
        "tenants",
        help="serve a multi-tenant world mix on one shared runtime",
    )
    tenants.add_argument("--tenants", type=int, default=3, dest="n_tenants")
    tenants.add_argument("--seed", type=int, default=7)
    tenants.add_argument(
        "--kinds", default="static,drift,copying",
        help="comma-separated tenant kinds the derived fleet cycles "
        "through (static, drift, copying)",
    )
    tenants.add_argument("--items", type=int, default=24)
    tenants.add_argument("--sources", type=int, default=4)
    tenants.add_argument(
        "--parts", type=int, default=3,
        help="deltas per static/copying tenant",
    )
    tenants.add_argument(
        "--epochs", type=int, default=3,
        help="mutation epochs per drift tenant",
    )
    tenants.add_argument(
        "--checkpoint-root", metavar="DIR",
        help="checkpoint every tenant under DIR/<tenant>/",
    )
    tenants.add_argument(
        "--json", metavar="FILE",
        help="write the deterministic mix report as JSON",
    )
    tenants.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the run's metric snapshot as JSON",
    )

    query = sub.add_parser(
        "query", help="query an exported claims TSV file"
    )
    query.add_argument("path")
    query.add_argument("--subject")
    query.add_argument("--predicate")
    query.add_argument("--object", dest="obj")
    query.add_argument("--limit", type=int, default=20)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "pipeline": _run_pipeline,
        "drift": _run_drift,
        "copying": _run_copying,
        "tenants": _run_tenants,
        "query": _run_query,
    }
    try:
        return handlers[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


# ----------------------------------------------------------------------
def _run_pipeline(args) -> int:
    from repro.core.config import PipelineConfig
    from repro.core.pipeline import KnowledgeBaseConstructionPipeline
    from repro.evalx.metrics import evaluate_fusion
    from repro.faults import RetryPolicy
    from repro.incremental import load_delta
    from repro.synth.querylog import QueryLogConfig
    from repro.synth.world import WorldConfig

    if args.retries < 0:
        raise ReproError(f"--retries must be >= 0, got {args.retries}")
    retry = (
        RetryPolicy(max_attempts=args.retries + 1)
        if args.retries > 0
        else None
    )
    config = PipelineConfig(
        world=WorldConfig(seed=args.seed),
        querylog=QueryLogConfig(scale=args.query_scale),
        discover_new_entities=args.discover_entities,
        retry=retry,
        stage_timeout=args.stage_timeout,
        min_sources=args.min_sources,
        checkpoint_dir=args.checkpoint_dir,
        storage_dir=args.storage_dir,
        memtable_limit=args.memtable_limit,
    )
    # A bad option or an unreadable delta file fails here, before the
    # run it would otherwise fail after.
    config.validate()
    deltas = [(path, load_delta(path)) for path in args.apply_delta]
    pipeline = KnowledgeBaseConstructionPipeline(config)
    report = pipeline.run(resume=args.resume)
    for timing in report.timings:
        print(f"{timing.stage:<22} {timing.seconds:6.2f}s  {timing.detail}")
    print(f"{'fusion wall':<22} {report.fusion_wall:6.2f}s")
    shards = report.fusion_shards
    print(
        f"{'fusion shards':<22} {shards['components']} components, "
        f"largest {shards['largest_claims']} claims"
    )
    health = report.health
    if (
        health.status != "ok"
        or health.resumed_stages
        or health.quarantined.get("total")
        or health.retry
    ):
        print(
            f"health: {health.status}; "
            f"degraded: {sorted(health.degraded) or 'none'}; "
            f"quarantined: {health.quarantined.get('total', 0)}; "
            f"resumed: {health.resumed_stages or 'none'}; "
            f"retry: {health.retry or 'none'}"
        )
    _print_fusion(report.fusion_report)
    augmentation = report.augmentation
    if augmentation is not None:
        print(
            f"augmentation: +{augmentation.new_facts} facts, "
            f"+{augmentation.total_new_attributes()} attributes, "
            f"+{augmentation.new_entities} entities"
        )
    if deltas:
        server = pipeline.serve()
        for path, delta in deltas:
            event = server.publish(delta)
            print(
                f"published {path} as event {event.offset} "
                f"({event.event_id})"
            )
        for outcome in server.drain():
            print(
                f"event {outcome.offset}: {outcome.action} -> version "
                f"{outcome.version_id} (sequence {outcome.sequence}, "
                f"{outcome.attempts} attempt(s))"
            )
        status = server.status()
        print(
            f"serving: version {status.version_id}, "
            f"{status.applied_events} events applied, "
            f"lag {status.lag_events}, "
            f"{'DEGRADED' if status.degraded else 'healthy'}"
            f"{f', {status.poisoned} poisoned' if status.poisoned else ''}"
        )
        reader = server.reader()
        _print_fusion(
            evaluate_fusion(
                pipeline.world,
                pipeline._remap_for_evaluation(
                    reader.version.result, report.entity_resolution
                ),
            )
        )
        for subject, score in reader.top_entities(5):
            print(f"  top entity {subject}: belief {score:.3f}")
    if args.export:
        from repro.rdf.io import dump_claims_tsv

        written = dump_claims_tsv(pipeline.freebase.store, args.export)
        print(f"exported {written} claims to {args.export}")
    if args.metrics_out:
        # report.metrics is frozen at the end of run(); deltas served
        # afterwards accrue stream_*/serving_*/incremental_*/storage_*
        # metrics in the live registry, so re-snapshot to include them.
        metrics = report.metrics
        if deltas:
            metrics = pipeline.metrics.snapshot()
        _dump_json(args.metrics_out, metrics.to_json_dict())
        print(f"metrics written to {args.metrics_out}")
    if args.trace_out:
        _dump_json(args.trace_out, report.trace)
        print(f"trace written to {args.trace_out}")
    return 0


def _print_fusion(fusion) -> None:
    print(
        f"fusion: {fusion.items} items, precision {fusion.precision:.3f}, "
        f"recall {fusion.recall:.3f}, F1 {fusion.f1:.3f}"
    )


def _dump_json(path: str, payload: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _run_drift(args) -> int:
    from repro.core.pipeline import KnowledgeBaseConstructionPipeline
    from repro.core.scenarios import run_drift
    from repro.synth.drift import DriftConfig

    pipeline = KnowledgeBaseConstructionPipeline()
    report = run_drift(
        pipeline,
        DriftConfig(
            seed=args.seed,
            n_items=args.items,
            n_sources=args.sources,
            epochs=args.epochs,
            value_change_rate=args.value_change_rate,
            birth_rate=args.birth_rate,
            death_rate=args.death_rate,
            rename_rate=args.rename_rate,
        ),
    )
    print(report.table())
    print(
        f"{report.epochs} epochs over {report.base_claims} base claims; "
        f"served version {report.final_version} "
        f"in {report.wall_seconds:.2f}s"
    )
    if args.json:
        _dump_json(args.json, report.to_json_dict())
        print(f"report written to {args.json}")
    if args.metrics_out:
        _dump_json(
            args.metrics_out, pipeline.metrics.snapshot().to_json_dict()
        )
        print(f"metrics written to {args.metrics_out}")
    return 0


def _run_copying(args) -> int:
    from repro.core.scenarios import run_copying
    from repro.obs import MetricsRegistry
    from repro.synth.copying import CopyingConfig

    metrics = MetricsRegistry()
    report = run_copying(
        CopyingConfig(
            seed=args.seed,
            n_items=args.items,
            n_independent=args.independents,
            n_copiers=args.copiers,
            copy_fraction=args.copy_fraction,
            victim_accuracy=args.victim_accuracy,
            lag=args.lag,
        ),
        metrics=metrics,
    )
    print(report.table())
    aware = report.mode("correlation-aware")
    blind = report.mode("correlation-blind")
    print(
        f"correlation-aware suppressed {aware.suppressed}/"
        f"{report.copied_errors} copied errors vs {blind.suppressed} "
        f"correlation-blind, in {report.wall_seconds:.2f}s"
    )
    if args.json:
        _dump_json(args.json, report.to_json_dict())
        print(f"report written to {args.json}")
    if args.metrics_out:
        _dump_json(args.metrics_out, metrics.snapshot().to_json_dict())
        print(f"metrics written to {args.metrics_out}")
    return 0


def _run_tenants(args) -> int:
    from repro.core.scenarios import run_tenants
    from repro.obs import MetricsRegistry
    from repro.synth.tenants import TenantMixConfig

    metrics = MetricsRegistry()
    report = run_tenants(
        TenantMixConfig(
            n_tenants=args.n_tenants,
            seed=args.seed,
            kinds=tuple(
                kind for kind in args.kinds.split(",") if kind
            ),
            n_items=args.items,
            n_sources=args.sources,
            parts=args.parts,
            epochs=args.epochs,
        ),
        metrics=metrics,
        checkpoint_root=args.checkpoint_root,
    )
    print(report.table())
    halted = [row.name for row in report.rows if row.halted]
    print(
        f"{report.tenants} tenants drained in {report.rounds} rounds "
        f"({len(halted)} halted) in {report.wall_seconds:.2f}s"
    )
    if args.json:
        _dump_json(args.json, report.to_json_dict())
        print(f"report written to {args.json}")
    if args.metrics_out:
        _dump_json(args.metrics_out, metrics.snapshot().to_json_dict())
        print(f"metrics written to {args.metrics_out}")
    return 0


def _run_query(args) -> int:
    from repro.rdf.io import load_claims_tsv
    from repro.rdf.triple import Value

    store = load_claims_tsv(args.path)
    subject, predicate = args.subject or None, args.predicate or None
    triples = store.match(
        subject, predicate, Value(args.obj) if args.obj else None
    )
    # An object matches by its lexical form whatever its kind: when the
    # typed (string) probe finds nothing, filter the pattern without it.
    if args.obj and not triples:
        triples = [
            triple
            for triple in store.match(subject, predicate)
            if triple.obj.lexical == args.obj
        ]
    # Matches come in claim order, which is the file's row order; sort
    # so that --limit keeps the same solutions whatever order the
    # export wrote its rows in, under any hash seed.
    triples.sort(
        key=lambda t: (t.subject, t.predicate, t.obj.lexical, t.obj.kind.value)
    )
    for triple in triples[: args.limit]:
        print(f"({triple.subject}, {triple.predicate}, {triple.obj.lexical})")
    print(f"{len(triples)} solutions")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
