"""One chaos-plan build with every instrumented layer on, as JSON.

Run as ``python -m tests.chaos.chaos_build`` by
``test_chaos_pipeline.py``, in a child process so the hash seed is the
caller's choice (``PYTHONHASHSEED``): the test compares what this
prints under two hash seeds.  The run is the chaos suite's — a
corrupted noise query record, a crashed fusion map task, retries on —
plus a checkpoint directory, so the quarantine, retry and checkpoint
counters are all non-zero.
"""

from __future__ import annotations

import json
import tempfile

from repro.core.pipeline import KnowledgeBaseConstructionPipeline
from repro.faults import RetryPolicy
from repro.obs import validate_metrics, validate_trace
from repro.synth.world import GroundTruthWorld
from tests.chaos.test_chaos_pipeline import (
    _chaos_plan,
    _config,
    _first_noise_record,
)

# PipelineReport.to_json_dict() sections that hold no wall clock.
REPORT_SECTIONS = (
    "seed_sizes", "attribute_counts", "triple_counts", "fused_items",
    "health",
)


def main() -> None:
    noise_index = _first_noise_record(GroundTruthWorld(_config().world))
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        report = KnowledgeBaseConstructionPipeline(
            _config(
                fault_plan=_chaos_plan(noise_index),
                retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
                checkpoint_dir=checkpoint_dir,
            )
        ).run()
    payload = report.to_json_dict()
    print(json.dumps({
        "report": {key: payload[key] for key in REPORT_SECTIONS},
        "deterministic_subset": report.metrics.deterministic_subset(),
        "schema_problems": (
            validate_metrics(report.metrics.to_json_dict())
            + validate_trace(report.trace)
        ),
    }, sort_keys=True))


if __name__ == "__main__":
    main()
