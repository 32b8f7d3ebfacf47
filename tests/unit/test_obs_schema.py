"""Unit tests for the metrics/trace JSON schema validators."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.obs.schema import (
    main,
    validate_metrics,
    validate_tenant_metrics,
    validate_trace,
)


def good_metrics() -> dict:
    return {
        "counters": {"runs_total": 1},
        "gauges": {"active_sources": 4},
        "histograms": {
            "sizes": {
                "bounds": [1.0, 5.0],
                "counts": [2, 1, 0],
                "count": 3,
                "sum": 7.0,
            }
        },
    }


def good_trace() -> dict:
    return {
        "seconds": 1.5,
        "spans": [
            {
                "name": "pipeline",
                "start": 0.0,
                "seconds": 1.5,
                "detail": "",
                "status": "ok",
                "children": [
                    {
                        "name": "fusion",
                        "start": 0.5,
                        "seconds": 1.0,
                        "detail": "10 items",
                        "status": "failed",
                        "children": [],
                    }
                ],
            }
        ],
    }


class TestValidateMetrics:
    def test_good_document_is_clean(self):
        assert validate_metrics(good_metrics()) == []

    def test_non_object_rejected(self):
        assert validate_metrics([]) != []

    def test_unexpected_top_level_key(self):
        doc = good_metrics()
        doc["extra"] = {}
        assert any("extra" in p for p in validate_metrics(doc))

    def test_non_numeric_counter(self):
        doc = good_metrics()
        doc["counters"]["runs_total"] = "many"
        assert any("runs_total" in p for p in validate_metrics(doc))

    def test_boolean_is_not_a_number(self):
        doc = good_metrics()
        doc["gauges"]["active_sources"] = True
        assert validate_metrics(doc) != []

    def test_unsorted_bounds(self):
        doc = good_metrics()
        doc["histograms"]["sizes"]["bounds"] = [5.0, 1.0]
        assert any("sorted" in p for p in validate_metrics(doc))

    def test_count_slot_mismatch(self):
        doc = good_metrics()
        doc["histograms"]["sizes"]["counts"] = [2, 1]
        assert any("slots" in p for p in validate_metrics(doc))

    def test_count_must_equal_sum_of_counts(self):
        doc = good_metrics()
        doc["histograms"]["sizes"]["count"] = 99
        assert any("sum(counts)" in p for p in validate_metrics(doc))


class TestValidateTrace:
    def test_good_document_is_clean(self):
        assert validate_trace(good_trace()) == []

    def test_missing_seconds(self):
        doc = good_trace()
        del doc["seconds"]
        assert validate_trace(doc) != []

    def test_bad_status_deep_in_the_tree(self):
        doc = good_trace()
        doc["spans"][0]["children"][0]["status"] = "meh"
        problems = validate_trace(doc)
        assert any("children[0].status" in p for p in problems)

    def test_negative_start_rejected(self):
        doc = good_trace()
        doc["spans"][0]["start"] = -1.0
        assert validate_trace(doc) != []


class TestMain:
    def test_valid_files_exit_zero(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        metrics.write_text(json.dumps(good_metrics()))
        trace.write_text(json.dumps(good_trace()))
        code = main(["--metrics", str(metrics), "--trace", str(trace)])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_file_exits_nonzero(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        metrics.write_text(json.dumps({"counters": {"x": "bad"}}))
        assert main(["--metrics", str(metrics)]) == 1
        assert capsys.readouterr().err != ""

    def test_unreadable_file_is_a_problem_not_a_crash(self, tmp_path):
        assert main(["--metrics", str(tmp_path / "missing.json")]) == 1

    def test_runs_as_a_module_without_a_warning(self, tmp_path):
        """Regression: ``repro.obs`` imported the schema module at
        package import, so ``python -m repro.obs.schema`` — the
        documented validator — warned on every run."""
        metrics = tmp_path / "m.json"
        metrics.write_text(json.dumps(good_metrics()))
        run = subprocess.run(
            [
                sys.executable, "-W", "error::RuntimeWarning",
                "-m", "repro.obs.schema", "--metrics", str(metrics),
            ],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        )
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout.startswith("ok")

    def test_the_package_re_exports_the_validators(self):
        from repro.obs import validate_metrics as exported

        assert exported is validate_metrics


def tenant_metrics() -> dict:
    return {
        "counters": {
            "stream_published_total{tenant=t00}": 3,
            "stream_published_total{tenant=t01}": 3,
            "runs_total": 1,
        },
        "gauges": {
            "serving_version{tenant=t00}": 3,
            "serving_version{tenant=t01}": 3,
            "tenant_count": 2,
        },
        "histograms": {},
    }


class TestValidateTenantMetrics:
    def test_fully_labeled_document_is_clean(self):
        assert validate_tenant_metrics(
            tenant_metrics(), ["t00", "t01"]
        ) == []

    def test_non_object_rejected(self):
        assert validate_tenant_metrics([], ["t00"]) != []

    def test_unlabeled_tenant_scoped_series_is_a_leak(self):
        doc = tenant_metrics()
        doc["counters"]["stream_published_total"] = 6
        problems = validate_tenant_metrics(doc, ["t00", "t01"])
        assert any("without a" in p for p in problems)

    def test_unknown_tenant_label_is_reported(self):
        doc = tenant_metrics()
        doc["counters"]["serving_reads_total{tenant=ghost}"] = 1
        problems = validate_tenant_metrics(doc, ["t00", "t01"])
        assert any("unknown tenant 'ghost'" in p for p in problems)

    def test_silent_tenant_is_reported(self):
        problems = validate_tenant_metrics(
            tenant_metrics(), ["t00", "t01", "t02"]
        )
        assert any(
            "t02" in p and "serving_version" in p for p in problems
        )

    @pytest.mark.parametrize("section", ["counters", "gauges", "histograms"])
    @pytest.mark.parametrize(
        "key",
        [
            "stream_events_total{tenant",  # unterminated label body
            "stream_events_total{tenant=t00,ghost}",  # label without "="
            "stream_events_total{}",  # renders as the bare name
            "stream_events_total{tenant=t00}x",  # trailing text
        ],
    )
    def test_malformed_key_is_a_problem_in_both_validators(
        self, section, key
    ):
        # Regression: validate_metrics only checked that a key was a
        # non-empty string, and the tenant validator split keys with a
        # parser of its own that skipped what it could not read.
        doc = tenant_metrics()
        value = good_metrics()["histograms"]["sizes"]
        doc[section][key] = value if section == "histograms" else 1
        problems = validate_metrics(doc)
        assert [p for p in problems if "malformed" in p] == [
            f"{section}: malformed metric key {key!r}"
        ]
        tenant_problems = validate_tenant_metrics(doc, ["t00", "t01"])
        assert f"{section}[{key!r}]: malformed metric key" in tenant_problems

    def test_unscoped_series_need_no_label(self):
        doc = {
            "counters": {"runs_total": 1},
            "gauges": {"serving_version{tenant=t00}": 1},
            "histograms": {},
        }
        assert validate_tenant_metrics(doc, ["t00"]) == []


class TestMainTenants:
    def test_valid_tenant_file_exits_zero(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        metrics.write_text(json.dumps(tenant_metrics()))
        code = main(["--metrics", str(metrics), "--tenants", "t00,t01"])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_missing_label_fails(self, tmp_path, capsys):
        doc = tenant_metrics()
        del doc["gauges"]["serving_version{tenant=t01}"]
        metrics = tmp_path / "m.json"
        metrics.write_text(json.dumps(doc))
        assert main(
            ["--metrics", str(metrics), "--tenants", "t00,t01"]
        ) == 1
        assert "t01" in capsys.readouterr().err

    def test_tenants_flag_requires_metrics(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            main(["--tenants", "t00"])
