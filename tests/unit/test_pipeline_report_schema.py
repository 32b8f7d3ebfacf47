"""PipelineReport serialization: health + shard fields survive JSON.

The chaos CI step diffs two ``to_json_dict()`` outputs, so the schema
must round-trip through ``json.dumps``/``json.loads`` unchanged and
stay deterministically ordered.
"""

import json

from repro.core.pipeline import (
    PipelineHealth,
    PipelineReport,
    StageTiming,
)


def _populated_report() -> PipelineReport:
    report = PipelineReport()
    report.timings.append(StageTiming("kb-extraction", 1.25, "900 claims"))
    report.timings.append(StageTiming("fusion", 0.5, "4000 claims"))
    report.seed_sizes = {"Film": 12, "Book": 9}
    report.attribute_counts = {"kb": {"Book": 11, "Film": 13}}
    report.triple_counts = {"kb": 900, "dom": 4100}
    report.fusion_wall = 0.42
    report.fusion_shards = {
        "components": 5,
        "largest_claims": 1800,
        "component_claims": [1800, 900, 700, 400, 200],
    }
    health = report.health
    health.status = "degraded"
    health.degraded["webtext-extraction"] = "InjectedFault: worker died"
    health.active_sources = ["dom", "kb", "querystream"]
    health.min_sources = 2
    health.resumed_stages = ["extraction"]
    health.quarantined = {
        "total": 2,
        "counts": {"querystream": 2},
        "samples": {"querystream": ["malformed: ''"]},
    }
    health.retry = {"attempts": 7, "retries": 2, "timed_out_tasks": 1}
    return report


class TestReportSerialization:
    def test_round_trip_is_lossless(self):
        payload = _populated_report().to_json_dict()
        restored = json.loads(json.dumps(payload))
        assert restored == payload

    def test_health_section_shape(self):
        health = _populated_report().to_json_dict()["health"]
        assert health["status"] == "degraded"
        assert health["degraded"] == {
            "webtext-extraction": "InjectedFault: worker died"
        }
        assert health["active_sources"] == ["dom", "kb", "querystream"]
        assert health["min_sources"] == 2
        assert health["resumed_stages"] == ["extraction"]
        assert health["quarantined"]["total"] == 2
        assert health["retry"]["retries"] == 2

    def test_fusion_fields_survive(self):
        payload = _populated_report().to_json_dict()
        assert payload["fusion_wall"] == 0.42
        assert payload["fusion_shards"]["components"] == 5
        assert payload["fusion_shards"]["component_claims"][0] == 1800

    def test_empty_report_serializes_with_defaults(self):
        payload = PipelineReport().to_json_dict()
        restored = json.loads(json.dumps(payload))
        assert restored["health"]["status"] == "ok"
        assert restored["health"]["quarantined"] == {
            "total": 0, "counts": {}, "samples": {},
        }
        assert restored["fused_items"] is None
        assert restored["timings"] == []

    def test_dict_keys_are_sorted_for_determinism(self):
        payload = _populated_report().to_json_dict()
        assert list(payload["seed_sizes"]) == ["Book", "Film"]
        assert list(payload["triple_counts"]) == ["dom", "kb"]
        assert list(payload["health"]["degraded"]) == ["webtext-extraction"]

    def test_health_default_factory_is_per_report(self):
        first, second = PipelineReport(), PipelineReport()
        first.health.mark_degraded("dom-extraction", "boom")
        assert second.health.status == "ok"
        assert isinstance(first.health, PipelineHealth)
