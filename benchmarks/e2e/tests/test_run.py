"""The driver contract, at smoke sizes."""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import spec

ROOT = pathlib.Path(__file__).resolve().parents[3]


def _run(root, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--seed", "5",
         "--seconds", str(spec.RUN_SECONDS), "--smoke", *args],
        cwd=root, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(name):
    done = _run(ROOT, "--workload", name, "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in spec.END_TO_END]
    for metric in spec.END_TO_END:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit and entry["value"] > 0
    leftovers = [
        path.name for path in (ROOT / "benchmarks/e2e/out").iterdir()
        if path.name != ".gitignore" and path.name.startswith("tmp-")
    ]
    assert leftovers == []


def test_traced_run_prints_every_per_layer_metric():
    done = _run(ROOT, "--workload", "shard_segment", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == [m.name for m in spec.PER_LAYER]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["trace.unattributed_share"] <= 0.10
    assert values["incremental.reuse_ratio"] > 0.5
    assert values["rdf.segments.flushes"] >= 1
    assert values["extract.dom.busy_s"] == 0  # not this workload's layer


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks/e2e", tmp_path / "benchmarks/e2e",
        ignore=shutil.ignore_patterns("__pycache__", "tmp-*", "*.json"),
    )
    done = _run(tmp_path, "--workload", "tenant_mix", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
