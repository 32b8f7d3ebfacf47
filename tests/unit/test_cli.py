"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.rdf.io import dump_claims_tsv
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value, ValueKind
from tests.conftest import run_python

_ONE_CLAIM_DELTA = {
    "label": "cli-test",
    "added": [
        {
            "subject": "delta/test-entity",
            "predicate": "capital",
            "object": "Testville",
            "kind": "string",
            "source": "delta-src",
            "extractor": "dom",
            "confidence": 0.9,
        }
    ],
    "retracted": [],
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_pipeline_defaults(self):
        args = build_parser().parse_args(["pipeline"])
        assert args.seed == 7
        assert not args.discover_entities

    def test_pipeline_fault_tolerance_defaults(self):
        args = build_parser().parse_args(["pipeline"])
        assert args.retries == 0
        assert args.stage_timeout is None
        assert args.min_sources == 1
        assert args.checkpoint_dir is None
        assert not args.resume

    def test_pipeline_fault_tolerance_flags(self):
        args = build_parser().parse_args(
            [
                "pipeline", "--retries", "3", "--stage-timeout", "30",
                "--min-sources", "2", "--checkpoint-dir", "/tmp/ckpt",
                "--resume",
            ]
        )
        assert args.retries == 3
        assert args.stage_timeout == 30.0
        assert args.min_sources == 2
        assert args.checkpoint_dir == "/tmp/ckpt"
        assert args.resume

    def test_pipeline_observability_flags(self):
        args = build_parser().parse_args(
            ["pipeline", "--metrics-out", "m.json", "--trace-out", "t.json"]
        )
        assert args.metrics_out == "m.json"
        assert args.trace_out == "t.json"
        defaults = build_parser().parse_args(["pipeline"])
        assert defaults.metrics_out is None
        assert defaults.trace_out is None


class TestPipelineObservabilityExport:
    def test_metrics_and_trace_files_are_valid(self, tmp_path, capsys):
        from repro.obs import validate_metrics, validate_trace

        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        assert main(
            [
                "pipeline",
                "--metrics-out", str(metrics_path),
                "--trace-out", str(trace_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert f"metrics written to {metrics_path}" in out
        assert f"trace written to {trace_path}" in out
        metrics_doc = json.loads(metrics_path.read_text())
        trace_doc = json.loads(trace_path.read_text())
        assert validate_metrics(metrics_doc) == []
        assert validate_trace(trace_doc) == []
        assert metrics_doc["counters"]["pipeline_runs_total"] == 1
        assert trace_doc["spans"][0]["name"] == "pipeline"


class TestQueryCommand:
    def test_query_over_exported_tsv(self, tmp_path, capsys):
        store = TripleStore()
        store.add(
            ScoredTriple(
                Triple("book/1", "author", Value("Jane")),
                Provenance("src", "ex"),
            )
        )
        store.add(
            ScoredTriple(
                Triple("book/2", "author", Value("Tom")),
                Provenance("src", "ex"),
            )
        )
        path = tmp_path / "claims.tsv"
        dump_claims_tsv(store, path)
        assert main(["query", str(path), "--predicate", "author"]) == 0
        out = capsys.readouterr().out
        assert "2 solutions" in out
        assert "Jane" in out and "Tom" in out

    def test_query_fully_bound(self, tmp_path, capsys):
        store = TripleStore()
        store.add(
            ScoredTriple(
                Triple("book/1", "author", Value("Jane")),
                Provenance("src", "ex"),
            )
        )
        path = tmp_path / "claims.tsv"
        dump_claims_tsv(store, path)
        assert main(
            [
                "query", str(path),
                "--subject", "book/1",
                "--predicate", "author",
                "--object", "Jane",
            ]
        ) == 0
        assert "1 solutions" in capsys.readouterr().out

    def test_object_of_any_kind_matches_by_its_lexical_form(
        self, tmp_path, capsys
    ):
        # --object probes the string-kind value first; a number or an
        # entity reference is found by the lexical fallback.
        store = TripleStore()
        for subject, obj in (
            ("book/1", Value("1874", ValueKind.NUMBER)),
            ("book/2", Value("1874")),
            ("book/3", Value("person/7", ValueKind.ENTITY)),
        ):
            store.add(
                ScoredTriple(
                    Triple(subject, "year", obj), Provenance("src", "ex")
                )
            )
        path = tmp_path / "claims.tsv"
        dump_claims_tsv(store, path)
        assert main(["query", str(path), "--object", "person/7"]) == 0
        assert capsys.readouterr().out == (
            "(book/3, year, person/7)\n1 solutions\n"
        )
        # A string-kind hit answers alone: no fallback to other kinds.
        assert main(["query", str(path), "--object", "1874"]) == 0
        assert capsys.readouterr().out == (
            "(book/2, year, 1874)\n1 solutions\n"
        )

    def test_solutions_print_sorted_under_any_hash_seed(self, tmp_path):
        # Six values of one item and six subjects of one (predicate,
        # object), neither inserted in sorted order: a store answers in
        # claim order, not sorted order, so without the sort --limit
        # would keep whichever three solutions came first.
        store = TripleStore()
        for index, city in enumerate(
            ["Paris", "Lyon", "Nice", "Lille", "Brest", "Metz"]
        ):
            store.add(
                ScoredTriple(
                    Triple("france", "city", Value(city)),
                    Provenance(f"src{index}", "ex"),
                )
            )
        for thing in ["rose", "fire", "apple", "blood", "wine", "cherry"]:
            store.add(
                ScoredTriple(
                    Triple(thing, "color", Value("red")),
                    Provenance("src", "ex"),
                )
            )
        path = tmp_path / "claims.tsv"
        dump_claims_tsv(store, path)
        for pattern in (["--subject", "france"], ["--predicate", "color"]):
            args = ["-m", "repro.cli", "query", str(path), *pattern]
            printed = [
                run_python(*args, "--limit", "3", hash_seed=seed)
                for seed in (0, 1, 2)
            ]
            assert printed[0] == printed[1] == printed[2], pattern
            lines = printed[0].splitlines()
            assert lines[-1] == "6 solutions"
            everything = run_python(*args, hash_seed=0).splitlines()
            assert everything[:-1] == sorted(everything[:-1])
            assert lines[:-1] == everything[:3]


class TestApplyDelta:
    def test_flag_is_repeatable(self):
        args = build_parser().parse_args(
            ["pipeline", "--apply-delta", "a.json", "--apply-delta", "b.json"]
        )
        assert args.apply_delta == ["a.json", "b.json"]
        assert build_parser().parse_args(["pipeline"]).apply_delta == []

    @staticmethod
    def _apply_one_claim_delta(tmp_path, capsys):
        delta_path = tmp_path / "delta.json"
        delta_path.write_text(json.dumps(_ONE_CLAIM_DELTA))
        assert main(
            [
                "pipeline", "--query-scale", "0.0005",
                "--apply-delta", str(delta_path),
            ]
        ) == 0
        return delta_path, capsys.readouterr().out.splitlines()

    def test_pipeline_applies_delta_file(self, tmp_path, capsys):
        """The served version is scored like the run's own result, in
        one block after the serving line."""
        _, lines = self._apply_one_claim_delta(tmp_path, capsys)
        served = lines.index(
            "serving: version 1, 1 events applied, lag 0, healthy"
        )
        _run_fusion, served_fusion = [
            line for line in lines if line.startswith("fusion: ")
        ]
        assert lines.index(served_fusion) == served + 1
        assert lines[served + 2].startswith("  top entity ")

    def test_pipeline_serve_routes_delta_through_stream(
        self, tmp_path, capsys
    ):
        """Without any switch, a delta file is published to the stream
        and committed by the serving layer as a new version."""
        delta_path, lines = self._apply_one_claim_delta(tmp_path, capsys)
        assert f"published {delta_path} as event 0" in "\n".join(lines)
        served = lines.index(
            "serving: version 1, 1 events applied, lag 0, healthy"
        )
        assert lines[served - 1].startswith(
            "event 0: applied -> version 1 (sequence 1, "
        )

    def test_serve_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["pipeline", "--serve"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --serve" in capsys.readouterr().err


class TestUsageErrors:
    """A mistyped option is one ``repro: error:`` line and status 2,
    reported before any work is done — not a traceback after it."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["pipeline", "--memtable-limit", "0"],
             "memtable_limit must be >= 1"),
            (["pipeline", "--apply-delta", "/no/such/delta.json"],
             "cannot read delta file /no/such/delta.json"),
            (["query", "/no/such.tsv"], "/no/such.tsv"),
            (["pipeline", "--resume"], "resume needs a checkpoint_dir"),
            (["pipeline", "--retries", "-1"], "--retries must be >= 0"),
        ],
        ids=["memtable-zero", "missing-delta",
             "missing-tsv", "resume-without-checkpoint-dir",
             "negative-retries"],
    )
    def test_reported_on_stderr_before_the_run(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro: error: ")
        assert message in line


class TestStorageFlags:
    def test_pipeline_storage_defaults_and_flags(self):
        defaults = build_parser().parse_args(["pipeline"])
        assert defaults.storage_dir is None
        assert defaults.memtable_limit == 8192
        args = build_parser().parse_args(
            [
                "pipeline",
                "--storage-dir", "/tmp/segs", "--memtable-limit", "500",
            ]
        )
        assert args.storage_dir == "/tmp/segs"
        assert args.memtable_limit == 500

    def test_metrics_out_includes_post_run_delta_metrics(
        self, tmp_path, capsys
    ):
        """report.metrics is frozen at the end of run(); a delta applied
        afterwards accrues storage_*/incremental_* metrics that
        --metrics-out must still export (regression: the CLI used to
        dump the stale batch snapshot)."""
        from repro.obs import validate_metrics

        delta_path = tmp_path / "delta.json"
        delta_path.write_text(json.dumps(_ONE_CLAIM_DELTA))
        metrics_path = tmp_path / "metrics.json"
        assert main(
            [
                "pipeline",
                "--query-scale", "0.0005",
                "--storage-dir", str(tmp_path / "segs"),
                "--memtable-limit", "500",
                "--apply-delta", str(delta_path),
                "--metrics-out", str(metrics_path),
            ]
        ) == 0
        capsys.readouterr()
        doc = json.loads(metrics_path.read_text())
        assert validate_metrics(doc) == []
        assert doc["counters"]["storage_flushes_total"] >= 1
        assert doc["counters"]["incremental_deltas_total"] == 1
        assert doc["gauges"]["storage_segments"] >= 1


class TestTenantsCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["tenants"])
        assert args.n_tenants == 3
        assert args.seed == 7
        assert args.kinds == "static,drift,copying"
        assert args.checkpoint_root is None

    def test_table_and_summary_printed(self, capsys):
        main([
            "tenants", "--tenants", "2", "--kinds", "static",
            "--items", "8", "--sources", "3", "--parts", "2",
        ])
        out = capsys.readouterr().out
        assert "tenant00" in out and "tenant01" in out
        assert "2 tenants" in out

    def test_json_export_is_deterministic(self, tmp_path, capsys):
        documents = []
        for run in range(2):
            path = tmp_path / f"run{run}.json"
            main([
                "tenants", "--tenants", "2", "--kinds", "static",
                "--items", "8", "--sources", "3", "--parts", "2",
                "--json", str(path),
            ])
            documents.append(json.loads(path.read_text()))
        assert documents[0] == documents[1]
        rows = documents[0]["rows"]
        assert [row["name"] for row in rows] == ["tenant00", "tenant01"]
        assert all(row["halted"] is None for row in rows)

    def test_metrics_out_carries_tenant_labels(self, tmp_path, capsys):
        from repro.obs.schema import validate_tenant_metrics

        path = tmp_path / "metrics.json"
        main([
            "tenants", "--tenants", "2", "--kinds", "static",
            "--items", "8", "--sources", "3", "--parts", "2",
            "--metrics-out", str(path),
        ])
        payload = json.loads(path.read_text())
        assert validate_tenant_metrics(
            payload, ["tenant00", "tenant01"]
        ) == []

    def test_checkpoint_root_gets_per_tenant_subdirs(self, tmp_path, capsys):
        root = tmp_path / "ckpt"
        main([
            "tenants", "--tenants", "2", "--kinds", "static",
            "--items", "8", "--sources", "3", "--parts", "2",
            "--checkpoint-root", str(root),
        ])
        assert (root / "tenant00" / "serving.ckpt").exists()
        assert (root / "tenant01" / "serving.ckpt").exists()
