"""Serving layer — read latency and throughput under live ingest.

Primes a :class:`~repro.serving.server.KBServer` over a synthetic
multi-world corpus, then measures three regimes:

* **steady** — read-only QPS and latency against one pinned reader
  (no ingest running);
* **concurrent** — the same read mix while a writer thread publishes
  and commits delta versions as fast as it can: the snapshot-isolation
  claim is that read latency barely moves;
* **degraded** — a poison delta parks in the dead-letter hold and the
  server keeps answering from the last good version; the section
  records the staleness the obs registry reports
  (``serving_degraded`` / ``serving_lag_events``) plus read health.

Reads are a fixed deterministic mix of point lookups, subject scans
and top-k queries.  The final served verdicts are verified
byte-identical to a cold full re-fusion of the post-stream store.

Results land in ``benchmarks/out/serving.txt`` (table) and
``benchmarks/out/BENCH_serving.json``.  Run standalone with
``python benchmarks/bench_serving.py [--quick]``.
"""

import argparse
import json
import os
import pathlib
import sys
import threading
import time

from repro.faults import FaultPlan, RetryPolicy
from repro.evalx.tables import render_table
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.incremental import canonical_claims
from repro.obs.metrics import MetricsRegistry
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple
from repro.serving.server import KBServer
from repro.serving.stream import EventLog
from repro.synth.claims import ClaimWorldConfig, generate_claim_world
from repro.synth.deltas import (
    DeltaStreamConfig,
    generate_delta_stream,
    scored_from_claims,
)

OUT_DIR = pathlib.Path(__file__).parent / "out"


def _corpus(quick: bool):
    n_worlds = 6 if quick else 30
    n_items = 8 if quick else 12
    scored = []
    for index in range(n_worlds):
        world = generate_claim_world(
            ClaimWorldConfig(seed=400 + index, n_items=n_items, n_sources=5)
        )
        for one in scored_from_claims(world.claims):
            triple = one.triple
            scored.append(
                ScoredTriple(
                    Triple(
                        f"w{index:03d}/{triple.subject}",
                        triple.predicate,
                        triple.obj,
                    ),
                    Provenance(
                        f"w{index:03d}/{one.provenance.source_id}",
                        one.provenance.extractor_id,
                        one.provenance.locator,
                    ),
                    one.confidence,
                )
            )
    return scored


def _server(quick: bool, metrics: MetricsRegistry):
    scored = _corpus(quick)
    base, deltas = generate_delta_stream(
        scored,
        DeltaStreamConfig(seed=7, parts=4 if quick else 16),
    )
    store = TripleStore()
    store.add_all(base)
    engine = KnowledgeFusion(
        tolerance=0.0, max_iterations=8
    ).begin_incremental(store)
    server = KBServer(
        engine,
        EventLog(capacity=4096, metrics=metrics),
        retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        metrics=metrics,
    )
    return server, deltas


def _query_mix(reader, subjects, tick):
    """One deterministic read; returns its wall seconds."""
    kind = tick % 4
    subject = subjects[tick % len(subjects)]
    started = time.perf_counter()
    if kind in (0, 1):
        reader.lookup(subject, "capital")
    elif kind == 2:
        reader.scan_subject(subject)
    else:
        reader.top_entities(10)
    return time.perf_counter() - started


def _percentile(latencies, fraction):
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _read_phase(server, subjects, n_reads, *, fresh_reader_every=64):
    """Run the read mix; re-pin periodically like a real client pool."""
    latencies = []
    reader = server.reader()
    started = time.perf_counter()
    for tick in range(n_reads):
        if tick % fresh_reader_every == 0:
            reader = server.reader()
        latencies.append(_query_mix(reader, subjects, tick))
    elapsed = time.perf_counter() - started
    return {
        "reads": n_reads,
        "qps": round(n_reads / elapsed, 1),
        "p50_ms": round(_percentile(latencies, 0.50) * 1000, 4),
        "p99_ms": round(_percentile(latencies, 0.99) * 1000, 4),
        "wall_seconds": round(elapsed, 4),
    }


def run_sections(quick: bool) -> dict:
    metrics = MetricsRegistry()
    server, deltas = _server(quick, metrics)
    subjects = sorted(
        {one.triple.subject for one in server.engine.store.claims()}
    )
    n_reads = 2_000 if quick else 20_000

    # -- steady: no ingest ---------------------------------------------
    steady = _read_phase(server, subjects, n_reads)

    # -- concurrent: reads race live delta commits ---------------------
    ingest_deltas = deltas[:-1]  # hold one back for the degraded phase
    for delta in ingest_deltas:
        server.publish(delta)
    commits = {"count": 0}

    def ingest():
        while server.step() is not None:
            commits["count"] += 1

    writer = threading.Thread(target=ingest)
    writer.start()
    concurrent = _read_phase(server, subjects, n_reads)
    writer.join()
    concurrent["versions_committed_during_reads"] = commits["count"]
    assert server.status().lag_events == 0

    # -- degraded: poison delta, serving continues stale ---------------
    server.fault_plan = FaultPlan(seed=1).crash(
        "stream:apply", index=server.log.head, attempts=0
    )
    server.publish(deltas[-1])
    outcome = server.step()
    assert outcome.action == "poisoned"
    degraded_reads = _read_phase(server, subjects, max(500, n_reads // 4))
    status = server.status()
    degraded = {
        **degraded_reads,
        "degraded_gauge": metrics.gauge("serving_degraded").value,
        # Events published whose content is NOT in the served KB:
        # still-unconsumed backlog plus poison-parked deltas.
        "staleness_events": status.lag_events + status.poisoned,
        "poisoned": status.poisoned,
        "quarantined_held": status.quarantined_held,
    }

    # -- heal and verify byte-identity against a cold full re-fusion --
    server.fault_plan = None
    server.requeue_quarantined()
    server.drain()
    reference = KnowledgeFusion(tolerance=0.0, max_iterations=8).fuse(
        canonical_claims(server.engine.store.copy())
    )
    identical = (
        server.versions.current.canonical_bytes()
        == reference.canonical_bytes()
    )

    return {
        "claims_base": len(server.engine.store),
        "deltas": len(deltas),
        "final_version": server.versions.current.version_id,
        "identical_to_full_refusion": identical,
        "steady": steady,
        "concurrent": concurrent,
        "degraded": degraded,
    }


def section_table(section: dict) -> str:
    rows = []
    for name in ("steady", "concurrent", "degraded"):
        phase = section[name]
        rows.append(
            [
                name,
                phase["reads"],
                f"{phase['qps']:.0f}",
                f"{phase['p50_ms']:.3f}ms",
                f"{phase['p99_ms']:.3f}ms",
                phase.get("versions_committed_during_reads", "-"),
                phase.get("staleness_events", "-"),
            ]
        )
    return render_table(
        ["phase", "reads", "qps", "p50", "p99", "commits", "stale"],
        rows,
        title=(
            f"KB serving ({section['claims_base']} claims, "
            f"{section['deltas']} deltas, final version "
            f"{section['final_version']}, byte-identical="
            f"{'yes' if section['identical_to_full_refusion'] else 'NO'})"
        ),
    )


def run_all(quick: bool) -> tuple[dict, str]:
    section = run_sections(quick)
    document = {
        "meta": {
            "quick": quick,
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "serving": section,
    }
    return document, section_table(section)


def emit(document: dict, tables: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "serving.txt").write_text(tables + "\n")
    (OUT_DIR / "BENCH_serving.json").write_text(
        json.dumps(document, indent=2) + "\n"
    )


def _check(document: dict) -> list[str]:
    section = document["serving"]
    failures = []
    if not section["identical_to_full_refusion"]:
        failures.append(
            "served verdicts diverged from a cold full re-fusion"
        )
    for name in ("steady", "concurrent", "degraded"):
        if section[name]["qps"] <= 0:
            failures.append(f"{name} phase recorded no throughput")
    if section["degraded"]["degraded_gauge"] != 1.0:
        failures.append("degraded phase did not flag serving_degraded")
    if section["degraded"]["staleness_events"] < 1:
        failures.append("degraded phase reports no staleness")
    return failures


def test_serving_report():
    document, tables = run_all(quick=False)
    print()
    print(tables)
    emit(document, tables)
    assert not _check(document)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink the corpus and read counts (CI smoke mode)",
    )
    options = parser.parse_args(argv)
    document, tables = run_all(quick=options.quick)
    print(tables)
    emit(document, tables)
    print(f"\nwrote {OUT_DIR / 'BENCH_serving.json'}")
    failures = _check(document)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
