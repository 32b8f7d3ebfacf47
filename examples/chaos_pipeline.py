"""Chaos example: run the pipeline under injected faults and survive.

Demonstrates the fault-tolerance layer end to end on a small world:

1. a **fault-free** baseline run;
2. a **chaos** run with a seeded :class:`repro.FaultPlan` injecting a
   transient crash into the sharded-fusion map phase and corrupting one
   query record — with retries and the quarantine enabled the run
   completes and its fused output is identical to the baseline;
3. a **degraded** run where the Web-text extractor dies permanently —
   the stage is marked degraded and fusion proceeds on the remaining
   three sources.

Usage::

    PYTHONPATH=src python examples/chaos_pipeline.py [--json]

``--json`` prints the chaos run's deterministic report fields (the
same subset CI diffs across two same-seed runs to prove determinism):
wall-clock timings are excluded, everything else is a pure function of
config + seeds.
"""

import argparse
import json

from repro import (
    FaultPlan,
    KnowledgeBaseConstructionPipeline,
    PipelineConfig,
    RetryPolicy,
)
from repro.synth.querylog import QueryLogConfig, generate_query_log
from repro.synth.websites import WebsiteConfig
from repro.synth.webtext import WebTextConfig
from repro.synth.world import WorldConfig

DETERMINISTIC_FIELDS = (
    "seed_sizes",
    "attribute_counts",
    "triple_counts",
    "fused_items",
    "health",
)


def small_config(**overrides) -> PipelineConfig:
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
        **overrides,
    )


def fused_truths(report):
    return {
        item: sorted(values)
        for item, values in report.fusion_result.truths.items()
    }


def deterministic_subset(report) -> dict:
    payload = report.to_json_dict()
    return {key: payload[key] for key in DETERMINISTIC_FIELDS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json", action="store_true",
        help="print only the chaos run's deterministic report JSON",
    )
    args = parser.parse_args()
    quiet = args.json

    # 1. Fault-free baseline.
    baseline = KnowledgeBaseConstructionPipeline(small_config())
    baseline_report = baseline.run()
    if not quiet:
        print(f"baseline: {len(fused_truths(baseline_report))} fused items, "
              f"health {baseline_report.health.status}")

    # 2. Chaos run: find a noise query record (it contributes no
    # claims, so quarantining it must not change the output), corrupt
    # it, and crash the first fusion map task once.
    log = generate_query_log(baseline.world, small_config().querylog)
    noise_index = next(
        i for i, record in enumerate(log) if record.gold_class is None
    )
    plan = (
        FaultPlan(seed=11)
        .corrupt("records:querystream", index=noise_index)
        .crash("map", index=0, attempts=1)
    )
    chaos = KnowledgeBaseConstructionPipeline(
        small_config(
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        )
    )
    chaos_report = chaos.run()
    identical = fused_truths(chaos_report) == fused_truths(baseline_report)
    if not quiet:
        health = chaos_report.health
        print(f"chaos:    quarantined {health.quarantined['total']} "
              f"record(s), fusion retries {health.retry.get('retries', 0)}, "
              f"health {health.status}")
        print(f"chaos output identical to baseline: {identical}")
    assert identical, "fault tolerance must not change output"

    # 3. Permanent extractor failure: degrade, don't die.
    degraded = KnowledgeBaseConstructionPipeline(
        small_config(
            fault_plan=FaultPlan(seed=7).crash(
                "stage:webtext-extraction", attempts=0
            )
        )
    )
    degraded_report = degraded.run()
    if not quiet:
        health = degraded_report.health
        print(f"degraded: status {health.status}, "
              f"lost {sorted(health.degraded)}, "
              f"fused {len(fused_truths(degraded_report))} items from "
              f"{health.active_sources}")

    if args.json:
        print(json.dumps(deterministic_subset(chaos_report), indent=2,
                         sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
