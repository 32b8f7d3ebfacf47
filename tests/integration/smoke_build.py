"""One build of the smoke web world, summarised as JSON on stdout.

Run as ``python -m tests.integration.smoke_build`` by
``test_build_path_pins.py``, in a child process so the hash seed is
the caller's choice (``PYTHONHASHSEED``): the pins there compare what
this prints under two hash seeds and against values taken at the
commit before the build-path prefilters landed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.core.pipeline import KnowledgeBaseConstructionPipeline
from repro.textproc import similarity
from tests.conftest import smoke_pipeline_config


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def main() -> None:
    dp_calls = 0
    banded = similarity._banded_levenshtein

    def counting_banded(left, right, limit):
        nonlocal dp_calls
        dp_calls += 1
        return banded(left, right, limit)

    similarity._banded_levenshtein = counting_banded
    pipeline = KnowledgeBaseConstructionPipeline(smoke_pipeline_config())
    report = pipeline.run()
    counters = report.metrics.counters
    pins = {
        "triple_counts": report.triple_counts,
        "attribute_counts": report.attribute_counts,
        "query_stats": asdict(report.query_stats),
        "seed_sizes": report.seed_sizes,
    }
    claims = [
        (
            scored.triple.subject,
            scored.triple.predicate,
            scored.triple.obj.lexical,
            scored.provenance.source_id,
            scored.provenance.extractor_id,
            scored.provenance.locator,
            scored.confidence,
        )
        for scored in pipeline.all_triples
    ]
    print(json.dumps({
        "report_pins": pins,
        "report_digest": _digest(
            json.dumps(pins, sort_keys=True).encode()
        ),
        "claims": len(claims),
        "claims_digest": _digest(repr(claims).encode()),
        "fused_digest": _digest(report.fusion_result.canonical_bytes()),
        "resolver_scored": counters[
            "blocking_tier3_scored_total{site=attributes}"
        ],
        "resolver_queries": counters[
            "blocking_queries_total{site=attributes}"
        ],
        "levenshtein_dp_calls": dp_calls,
    }))


if __name__ == "__main__":
    main()
