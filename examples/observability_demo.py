"""Observability example: metrics and a span trace from one run.

Runs the full pipeline on a small world with every instrumented layer
active at once — sharded fusion over the MapReduce engine (with a
retry policy and a seeded fault plan, so retry/quarantine counters are
non-zero), checkpointing to a temp directory, and the similarity cache
layer — then demonstrates the exported documents:

1. the **metric snapshot** (``PipelineReport.metrics``): counters,
   gauges and histograms covering the pipeline stages, the MapReduce
   engine, fusion kernels, the similarity caches, the quarantine and
   the checkpoint store;
2. the **span trace** (``PipelineReport.trace``): the nested
   wall-clock tree of the run;
3. the **deterministic subset**: the count-type metrics (everything
   not named ``*_seconds``), byte-identical across same-seed runs —
   the demo runs the pipeline twice and asserts it.

Usage::

    PYTHONPATH=src python examples/observability_demo.py \
        [--metrics-out FILE] [--trace-out FILE] [--deterministic-out FILE]
"""

import argparse
import json
import tempfile

from repro import (
    FaultPlan,
    KnowledgeBaseConstructionPipeline,
    PipelineConfig,
    RetryPolicy,
)
from repro.obs import validate_metrics, validate_trace
from repro.synth.querylog import QueryLogConfig, generate_query_log
from repro.synth.websites import WebsiteConfig
from repro.synth.webtext import WebTextConfig
from repro.synth.world import WorldConfig

# Every instrumented layer must show up in the snapshot under one of
# these metric-name prefixes (the acceptance bar for the demo).
LAYER_PREFIXES = {
    "pipeline layer": "pipeline_",
    "mapreduce engine": "mapreduce_",
    "fusion kernels": "fusion_",
    "similarity caches": "simcache_",
    "quarantine": "quarantine_",
    "checkpoint store": "checkpoint_",
}


def small_config(checkpoint_dir: str, **overrides) -> PipelineConfig:
    return PipelineConfig(
        world=WorldConfig(
            entities_per_class={
                "Book": 15, "Film": 15, "Country": 12,
                "University": 12, "Hotel": 10,
            }
        ),
        querylog=QueryLogConfig(seed=17, scale=0.0005),
        websites=WebsiteConfig(sites_per_class=2, pages_per_site=6),
        webtext=WebTextConfig(sources_per_class=2, documents_per_source=6),
        checkpoint_dir=checkpoint_dir,
        retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        **overrides,
    )


def build_fault_plan(config: PipelineConfig) -> FaultPlan:
    """Corrupt one noise query record and crash one fusion map task.

    The corrupted record contributes no claims and the crash is
    retried, so the output matches a fault-free run — but the
    quarantine and retry counters light up.
    """
    from repro.synth.world import GroundTruthWorld

    world = GroundTruthWorld(config.world)
    log = generate_query_log(world, config.querylog)
    noise_index = next(
        i for i, record in enumerate(log) if record.gold_class is None
    )
    return (
        FaultPlan(seed=11)
        .corrupt("records:querystream", index=noise_index)
        .crash("map", index=0, attempts=1)
    )


def run_once(checkpoint_dir: str):
    config = small_config(checkpoint_dir)
    pipeline = KnowledgeBaseConstructionPipeline(
        small_config(checkpoint_dir, fault_plan=build_fault_plan(config))
    )
    return pipeline.run()


def check_layer_coverage(metrics_doc: dict) -> None:
    names = set(metrics_doc["counters"]) | set(metrics_doc["gauges"]) | set(
        metrics_doc["histograms"]
    )
    for layer, prefix in LAYER_PREFIXES.items():
        covered = any(name.startswith(prefix) for name in names)
        assert covered, f"{layer}: no {prefix}* metric in the snapshot"


def summarize(report) -> None:
    counters = report.metrics.counters
    print(f"run wall: {report.wall_seconds:.2f}s "
          f"(cumulative stage time {report.cumulative_stage_seconds():.2f}s)")
    interesting = (
        "mapreduce_jobs_total",
        "mapreduce_attempts_total",
        "mapreduce_retries_total",
        "fusion_rounds_total",
        "fusion_claims_total",
        "quarantine_records_total",
        "checkpoint_saves_total{stage=extraction}",
        "checkpoint_saves_total{stage=claims}",
    )
    for key in interesting:
        print(f"  {key:<42} {counters.get(key, 0):g}")
    hits = sum(
        value for key, value in counters.items()
        if key.startswith("simcache_hits_total")
    )
    print(f"  {'simcache hits (all caches)':<42} {hits:g}")
    spans = report.trace["spans"]
    root = spans[0]
    print(f"trace: root span '{root['name']}' with "
          f"{len(root['children'])} direct children")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--metrics-out", metavar="FILE")
    parser.add_argument("--trace-out", metavar="FILE")
    parser.add_argument(
        "--deterministic-out", metavar="FILE",
        help="write the deterministic (count-type) metric subset",
    )
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as first_dir:
        report = run_once(first_dir)
    metrics_doc = report.metrics.to_json_dict()
    trace_doc = report.trace

    problems = validate_metrics(metrics_doc) + validate_trace(trace_doc)
    assert not problems, f"schema violations: {problems}"
    check_layer_coverage(metrics_doc)
    print(f"layer coverage ok: {', '.join(sorted(LAYER_PREFIXES))}")
    summarize(report)

    # Same seeds, fresh checkpoint dir: the count-type metrics must be
    # byte-identical; only the *_seconds metrics may differ.
    with tempfile.TemporaryDirectory() as second_dir:
        second = run_once(second_dir)
    first_subset = report.metrics.deterministic_subset()
    second_subset = second.metrics.deterministic_subset()
    identical = json.dumps(first_subset, sort_keys=True) == json.dumps(
        second_subset, sort_keys=True
    )
    print(f"deterministic metric subset identical across runs: {identical}")
    assert identical, "count-type metrics must not vary across same-seed runs"

    for path, payload in (
        (args.metrics_out, metrics_doc),
        (args.trace_out, trace_doc),
        (args.deterministic_out, first_subset),
    ):
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
