"""MapReduce substrate, pipeline stages, tag-path tables — timing report.

Measures three things and verifies, in the same breath, that none of
the faster modes changes a single output:

1.  **Multiprocess MapReduce** — VOTE and ACCU on the scalability
    workloads, serial vs ``executor="process"``; both wall times are
    reported (on small hosts process overhead can dominate — the point
    of reporting both numbers) and the fused decisions must be
    byte-identical on a canonical serialization.
2.  **Pipeline stages** — one end-to-end run: wall clock, seconds per
    stage, and the cache hit rates it saw.
3.  **Tag-path memo tables** — Algorithm 1 (DOM extraction) with the
    two tag-path tables off / cold / warm, plus their hit rates; the
    extracted claims must be identical in all three modes.  "Off"
    routes every call to the undecorated function (``fn.__wrapped__``),
    so it is the uncached reference.  A ``run()`` starts cold, so
    off ÷ cold is the number a real run sees.

Results land in ``benchmarks/out/parallel.txt`` (tables) and
``benchmarks/out/BENCH_parallel.json`` (machine-readable).  Run
standalone with ``python benchmarks/bench_parallel.py [--quick]``;
``--quick`` shrinks every workload for CI smoke runs.
"""

import argparse
import gc
import json
import os
import pathlib
import sys
import time

from repro.core.pipeline import (
    KnowledgeBaseConstructionPipeline,
    PipelineConfig,
)
from repro.evalx.tables import format_ratio, render_table
from repro.extract.dom import DomTreeExtractor
from repro.mapreduce.engine import RetryPolicy
from repro.mapreduce.jobs import mr_accu, mr_vote
from repro.synth.claims import ClaimWorldConfig, generate_claim_world
from repro.synth.querylog import QueryLogConfig
from repro.synth.websites import WebsiteConfig, generate_websites
from repro.synth.webtext import WebTextConfig
from repro.synth.world import WorldConfig
from repro.textproc.memo import (
    clear_similarity_caches,
    configure_similarity_caches,
    similarity_cache_stats,
)

OUT_DIR = pathlib.Path(__file__).parent / "out"
MR_WORKERS = 2


# ----------------------------------------------------------------------
# Shared helpers.


def _canonical_fusion_bytes(result) -> bytes:
    """Canonical byte serialization of a fusion result's decisions."""
    return repr(
        (
            sorted(
                (item, sorted(values))
                for item, values in result.truths.items()
            ),
            sorted(result.belief.items()),
            sorted(result.source_quality.items()),
        )
    ).encode()


def _pipeline_config(quick: bool) -> PipelineConfig:
    if quick:
        return PipelineConfig(
            world=WorldConfig(
                entities_per_class={
                    "Book": 15, "Film": 15, "Country": 12,
                    "University": 12, "Hotel": 10,
                }
            ),
            querylog=QueryLogConfig(seed=17, scale=0.0005),
            websites=WebsiteConfig(sites_per_class=2, pages_per_site=6),
            webtext=WebTextConfig(
                sources_per_class=2, documents_per_source=6
            ),
        )
    return PipelineConfig(querylog=QueryLogConfig(seed=17, scale=0.002))


# ----------------------------------------------------------------------
# Section 1: serial vs multiprocess MapReduce.


def run_mapreduce_section(quick: bool) -> dict:
    item_counts = [100, 400] if quick else [100, 400, 1600]
    rounds = 3 if quick else 5
    records = []
    for n_items in item_counts:
        world = generate_claim_world(
            ClaimWorldConfig(seed=47, n_items=n_items, n_sources=10)
        )
        for job_name, job in (
            ("VOTE", lambda claims, **kw: mr_vote(claims, **kw)),
            (
                "ACCU",
                lambda claims, **kw: mr_accu(claims, rounds=rounds, **kw),
            ),
        ):
            started = time.perf_counter()
            serial = job(world.claims, partitions=4)
            serial_seconds = time.perf_counter() - started

            started = time.perf_counter()
            parallel = job(
                world.claims,
                partitions=4,
                executor="process",
                max_workers=MR_WORKERS,
            )
            parallel_seconds = time.perf_counter() - started

            identical = _canonical_fusion_bytes(
                parallel
            ) == _canonical_fusion_bytes(serial)
            records.append(
                {
                    "job": job_name,
                    "items": n_items,
                    "claims": len(world.claims),
                    "serial_seconds": round(serial_seconds, 4),
                    "process_seconds": round(parallel_seconds, 4),
                    "speedup": round(serial_seconds / parallel_seconds, 3),
                    "identical": identical,
                }
            )
    return {
        "workers": MR_WORKERS,
        "partitions": 4,
        "accu_rounds": rounds,
        "runs": records,
    }


def mapreduce_table(section: dict) -> str:
    rows = [
        [
            record["job"],
            record["items"],
            record["claims"],
            f"{record['serial_seconds'] * 1000:.1f}ms",
            f"{record['process_seconds'] * 1000:.1f}ms",
            f"{record['speedup']:.2f}x",
            "yes" if record["identical"] else "NO",
        ]
        for record in section["runs"]
    ]
    return render_table(
        ["job", "items", "claims", "serial", f"process x{MR_WORKERS}",
         "speedup", "identical"],
        rows,
        title="MapReduce: serial vs process executor",
    )


# ----------------------------------------------------------------------
# Section 1b: retry-path overhead (guarded dispatch, zero faults).


def run_retry_section(quick: bool) -> dict:
    """Cost of the fault-tolerance layer when nothing fails.

    The guarded dispatch path (attempt bookkeeping, per-task duration
    measurement, wave loop) engages whenever a retry policy is set —
    this section runs the same jobs with retries disabled vs enabled
    and zero injected faults, so the delta is pure retry-path overhead.
    The ratio is reported, not asserted: it is noise-dominated on tiny
    workloads and that is fine — the contract is identical output.
    """
    n_items = 200 if quick else 800
    rounds = 3 if quick else 5
    world = generate_claim_world(
        ClaimWorldConfig(seed=47, n_items=n_items, n_sources=10)
    )
    policy = RetryPolicy(max_attempts=3, backoff_base=0.0)
    records = []
    for job_name, job in (
        ("VOTE", lambda claims, **kw: mr_vote(claims, **kw)),
        ("ACCU", lambda claims, **kw: mr_accu(claims, rounds=rounds, **kw)),
    ):
        started = time.perf_counter()
        plain = job(world.claims, partitions=4)
        plain_seconds = time.perf_counter() - started

        started = time.perf_counter()
        guarded = job(world.claims, partitions=4, retry=policy)
        guarded_seconds = time.perf_counter() - started

        records.append(
            {
                "job": job_name,
                "claims": len(world.claims),
                "plain_seconds": round(plain_seconds, 4),
                "guarded_seconds": round(guarded_seconds, 4),
                "overhead_ratio": round(
                    guarded_seconds / plain_seconds, 3
                ),
                "identical": _canonical_fusion_bytes(guarded)
                == _canonical_fusion_bytes(plain),
            }
        )
    return {"items": n_items, "accu_rounds": rounds, "runs": records}


def retry_table(section: dict) -> str:
    rows = [
        [
            record["job"],
            record["claims"],
            f"{record['plain_seconds'] * 1000:.1f}ms",
            f"{record['guarded_seconds'] * 1000:.1f}ms",
            f"{record['overhead_ratio']:.2f}x",
            "yes" if record["identical"] else "NO",
        ]
        for record in section["runs"]
    ]
    return render_table(
        ["job", "claims", "retries off", "retries on (0 faults)",
         "overhead", "identical"],
        rows,
        title="Retry path: guarded dispatch overhead with zero faults",
    )


# ----------------------------------------------------------------------
# Section 2: where one end-to-end run spends its time.


def run_pipeline_section(quick: bool) -> dict:
    clear_similarity_caches()
    pipeline = KnowledgeBaseConstructionPipeline(_pipeline_config(quick))
    started = time.perf_counter()
    report = pipeline.run()
    wall = time.perf_counter() - started
    return {
        "claims": len(pipeline.claims),
        "wall_seconds": round(wall, 3),
        "stage_seconds": {
            timing.stage: round(timing.seconds, 3)
            for timing in report.timings
        },
        # Hit rates observed during the end-to-end run; the tag-path
        # cache's near-total hit rate is the DOM win.
        "extraction_cache_stats": {
            name: {
                "hit_rate": round(stats.hit_rate, 4),
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
            }
            for name, stats in similarity_cache_stats().items()
        },
        # The run's count-type metrics (the deterministic subset):
        # reproducible run-to-run, so BENCH diffs stay clean.
        "metrics_snapshot": report.metrics.deterministic_subset(),
        "serial_pipeline": pipeline,  # reused by the cache section
    }


def pipeline_table(section: dict) -> str:
    stage_rows = [
        [stage, f"{seconds:.2f}s"]
        for stage, seconds in section["stage_seconds"].items()
    ]
    stage_rows.append(["(wall)", f"{section['wall_seconds']:.2f}s"])
    stage_table = render_table(
        ["stage", "seconds"],
        stage_rows,
        title=f"Pipeline: one run, per stage ({section['claims']} claims)",
    )
    stat_rows = [
        [name, format_ratio(stats["hit_rate"]), stats["hits"],
         stats["misses"], stats["evictions"]]
        for name, stats in sorted(section["extraction_cache_stats"].items())
        if stats["hits"] or stats["misses"]
    ]
    stats_table = render_table(
        ["cache", "hit rate", "hits", "misses", "evictions"],
        stat_rows,
        title="Cache hit rates during one end-to-end run",
    )
    return stage_table + "\n\n" + stats_table


# ----------------------------------------------------------------------
# Section 3: the tag-path memo tables on the DOM-extraction hot path.


def run_cache_section(serial_pipeline) -> dict:
    config = serial_pipeline.config
    sites = generate_websites(serial_pipeline.world, config.websites)

    def extract_once():
        extractor = DomTreeExtractor(
            serial_pipeline.entity_index, serial_pipeline.seeds, config.dom
        )
        # One full collection of this heap costs ≈ 0.3 s; have it now,
        # not inside whichever of the three runs it would land in.
        gc.collect()
        started = time.perf_counter()
        output = extractor.extract(sites)
        return time.perf_counter() - started, sorted(
            repr(triple) for triple in output.triples
        )

    configure_similarity_caches(enabled=False)
    off_seconds, off_output = extract_once()
    clear_similarity_caches()
    configure_similarity_caches(enabled=True)
    cold_seconds, cold_output = extract_once()
    warm_seconds, warm_output = extract_once()

    hit_rates = {
        name: {
            "hit_rate": round(stats.hit_rate, 4),
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "size": stats.size,
        }
        for name, stats in similarity_cache_stats().items()
    }
    return {
        "input_pages": sum(len(site.pages) for site in sites),
        "dom_extraction_seconds": {
            "cache_off": round(off_seconds, 3),
            "cache_cold": round(cold_seconds, 3),
            "cache_warm": round(warm_seconds, 3),
        },
        "cold_speedup": round(off_seconds / cold_seconds, 3),
        "identical_output": off_output == cold_output == warm_output,
        "cache_stats": hit_rates,
    }


def cache_table(section: dict) -> str:
    seconds = section["dom_extraction_seconds"]
    timing_table = render_table(
        ["tables off", "cold", "warm", "off / cold", "identical"],
        [
            [
                f"{seconds['cache_off']:.2f}s",
                f"{seconds['cache_cold']:.2f}s",
                f"{seconds['cache_warm']:.2f}s",
                f"{section['cold_speedup']:.2f}x",
                "yes" if section["identical_output"] else "NO",
            ]
        ],
        title=(
            "Tag-path memo tables: DOM extraction "
            f"({section['input_pages']} pages)"
        ),
    )
    stat_rows = [
        [name, format_ratio(stats["hit_rate"]), stats["hits"],
         stats["misses"], stats["evictions"], stats["size"]]
        for name, stats in sorted(section["cache_stats"].items())
    ]
    stats_table = render_table(
        ["cache", "hit rate", "hits", "misses", "evictions", "size"],
        stat_rows,
        title="Per-cache statistics (cumulative this run)",
    )
    return timing_table + "\n\n" + stats_table


# ----------------------------------------------------------------------
# Harness.


def run_all(quick: bool) -> tuple[dict, str]:
    mapreduce = run_mapreduce_section(quick)
    retry = run_retry_section(quick)
    pipeline = run_pipeline_section(quick)
    cache = run_cache_section(pipeline.pop("serial_pipeline"))
    document = {
        "meta": {
            "quick": quick,
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "mapreduce": mapreduce,
        "retry_overhead": retry,
        "pipeline": pipeline,
        "similarity_cache": cache,
    }
    tables = "\n\n".join(
        [
            mapreduce_table(mapreduce),
            retry_table(retry),
            pipeline_table(pipeline),
            cache_table(cache),
        ]
    )
    return document, tables


def emit(document: dict, tables: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "parallel.txt").write_text(tables + "\n")
    (OUT_DIR / "BENCH_parallel.json").write_text(
        json.dumps(document, indent=2) + "\n"
    )


def test_parallel_report():
    document, tables = run_all(quick=False)
    print()
    print(tables)
    emit(document, tables)

    for record in document["mapreduce"]["runs"]:
        assert record["identical"]
    for record in document["retry_overhead"]["runs"]:
        assert record["identical"]
        assert record["overhead_ratio"] > 0
    cache = document["similarity_cache"]
    assert cache["identical_output"]
    # The tag-path tables must hit inside a cold-start run and pay
    # for themselves against the undecorated functions.
    extraction_stats = document["pipeline"]["extraction_cache_stats"]
    assert extraction_stats["tagpath-relative"]["hit_rate"] > 0.5
    assert cache["cold_speedup"] > 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink every workload (CI smoke mode)",
    )
    options = parser.parse_args(argv)
    document, tables = run_all(quick=options.quick)
    print(tables)
    emit(document, tables)
    print(f"\nwrote {OUT_DIR / 'BENCH_parallel.json'}")
    failures = []
    if not all(r["identical"] for r in document["mapreduce"]["runs"]):
        failures.append("mapreduce outputs diverged")
    if not all(r["identical"] for r in document["retry_overhead"]["runs"]):
        failures.append("guarded (retry) outputs diverged")
    if not document["similarity_cache"]["identical_output"]:
        failures.append("cached DOM extraction diverged")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
