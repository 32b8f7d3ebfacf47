"""Names, units, directions and regression bounds of the benchmark.

``BENCHMARK.json`` at the repo root is the driver-facing copy of this
table (:func:`benchmark_json` rebuilds it; a self-test keeps the two
equal).  Importing this module needs nothing from ``src/``.

Every workload prints every end-to-end metric, so the end-to-end
metrics are the ones defined on the whole path all four workloads
walk.  Metrics that only one workload can measure are ``EXTRAS``:
printed and compared by this package, not gated by the driver.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from benchmarks.e2e.trace import LAYER_METRICS

__all__ = [
    "BLOCK_READS",
    "BY_NAME",
    "COMMAND",
    "END_TO_END",
    "EXTRAS",
    "F1_FLOORS",
    "Metric",
    "PER_LAYER",
    "RUN_SECONDS",
    "WORKLOADS",
    "benchmark_json",
    "percentile",
    "summarize",
]

#: Seconds one untraced run measures at the checked-in sizes (sizes
#: were calibrated on a 2-core shared box at commit 3f22894); the
#: ``--seconds`` argument scales the repeat counts relative to this.
RUN_SECONDS = 15

#: Reads in one block of the fixed mix (88 lookup, 4 scan_subject,
#: 4 scan_predicate(limit=20), 4 top_entities(10)).
BLOCK_READS = 100

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]

#: name → why it exists (one line each; later issues cite the names).
WORKLOADS = {
    "web_build": (
        "Figure-1 batch path on the 18k-claim web world: extraction and "
        "attribute resolution dominate, fusion is ~22 %; then the built "
        "KB is served over a short delta tail."
    ),
    "web_serve": (
        "Same world as one connected component: every ~600-claim delta "
        "is a full re-fusion, so fusion kernels dominate ingest; reads "
        "hit cold reader caches on an 18k-claim store."
    ),
    "shard_segment": (
        "240 disjoint components on mmapped segments: 6-claim deltas "
        "where re-fusion is nearly free, so per-delta O(store) costs "
        "and flushes dominate; reads hit a warm pinned reader."
    ),
    "tenant_mix": (
        "12 small single-component tenants (static, drift, copying) "
        "behind one fair-share loop: per-event overhead of tenancy, "
        "stream, server, labelled metrics and checkpoints is the work."
    ),
}


@dataclass(frozen=True, slots=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    # Share of the parent's median the metric may worsen by; None for
    # per-layer metrics (no bound).
    bound: float | None = None
    # Workloads that report it; empty means all four.
    workloads: tuple[str, ...] = ()
    definition: str = ""

    def worsening(self, before: float, after: float) -> float:
        """Relative change from ``before`` to ``after``, positive = worse."""
        if not before:
            return 0.0
        change = (after - before) / abs(before)
        return change if self.better == "lower" else -change


END_TO_END = (
    # Every time below is taken at the reference host speed, see
    # ``hostspeed``.
    Metric("setup_s", "s", "lower", 0.25, definition=(
        "process start → first timed section: imports, input "
        "generation, world construction (web_serve: the set-up build)")),
    Metric("kb_ready_s", "s", "lower", 0.25, definition=(
        "inputs in memory → version 0 servable: median build "
        "(web_build only) + median cold prime")),
    Metric("ingest_claims_per_s", "1/s", "higher", 0.25, definition=(
        "(adds + retracts committed) ÷ ingest wall, reads excluded")),
    Metric("delta_visible_p50_ms", "ms", "lower", 0.25, definition=(
        "publish() entered → first lookup on a reader pinned after "
        "that delta's commit returned, median")),
    Metric("read_qps", "1/s", "higher", 0.25, definition=(
        "100 reads ÷ wall of a 100-read block (88 lookup, 4 scan_subject, "
        "4 scan_predicate, 4 top_entities), median over the blocks")),
    Metric("read_p50_us", "us", "lower", 0.25, definition=(
        "median read latency of a block, median over the blocks")),
    Metric("read_slow5_us", "us", "lower", 0.25, definition=(
        "mean latency of the 5 slowest reads of a block (the scans), "
        "median over the blocks")),
    Metric("peak_rss_mb", "MiB", "lower", 0.10, definition=(
        "ru_maxrss of the workload's process after the last timed "
        "phase")),
    Metric("fused_f1", "ratio", "higher", 0.10, definition=(
        "F1 of the final fused/served state vs the seeded truth")),
)

EXTRAS = (
    Metric("build_wall_s", "s", "lower", 0.25, ("web_build",),
           "median timed Pipeline.run()"),
    Metric("prime_s", "s", "lower", 0.25, ("web_build",),
           "median cold prime (the other workloads' kb_ready_s)"),
    Metric("delta_visible_p90_ms", "ms", "lower", 0.25, ("shard_segment",),
           "as delta_visible_p50_ms, p90"),
    Metric("reopen_s", "s", "lower", 0.25, ("shard_segment",),
           "after close(): open the segment directory + prime + first "
           "lookup answered, median"),
    Metric("stored_bytes_per_claim", "bytes", "lower", 0.0,
           ("shard_segment",),
           "bytes under the segment directory after the final flush ÷ "
           "live claims"),
    Metric("failed_ops_share", "ratio", "lower", 0.0, (),
           "failed ÷ attempted over builds, publishes, steps, reads and "
           "output checks"),
)

PER_LAYER = tuple(
    Metric(name, unit, better) for name, unit, better in LAYER_METRICS
)

BY_NAME = {metric.name: metric for metric in END_TO_END + EXTRAS + PER_LAYER}

#: ``fused_f1`` below its floor fails the run's output check.  Set a
#: little under the minimum seen over seeds 0–19 at commit 3f22894.
F1_FLOORS = {
    "web_build": 0.80,
    "web_serve": 0.78,
    "shard_segment": 0.70,
    "tenant_mix": 0.88,
}


def benchmark_json() -> dict:
    """The content ``BENCHMARK.json`` must have."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
            }
            for metric in END_TO_END
        ],
        "per_layer": [
            {"name": metric.name, "unit": metric.unit, "better": metric.better}
            for metric in PER_LAYER
        ],
    }


# ----------------------------------------------------------------------
# Small statistics shared by the harness and ``compare``.


def percentile(
    samples: list[float], fraction: float, *, strict: bool = True
) -> float:
    """Nearest-rank percentile; needs >= 10 samples beyond it.

    ``strict=False`` (smoke sizes only) skips that requirement.
    """
    ordered = sorted(samples)
    beyond = len(ordered) - int(fraction * len(ordered))
    if strict and beyond < 10:
        raise ValueError(
            f"p{fraction * 100:g} of {len(ordered)} samples has only "
            f"{beyond} beyond it (need 10)"
        )
    return ordered[int(fraction * len(ordered))]


def summarize(values: list[float]) -> dict:
    """n / median / quartiles of one metric's values."""
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "values": list(values),
    }
