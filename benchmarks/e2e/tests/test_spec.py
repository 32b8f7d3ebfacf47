"""The metric and workload tables, and their copy in BENCHMARK.json."""

import json
import pathlib
import re

from benchmarks.e2e import spec

ROOT = pathlib.Path(__file__).resolve().parents[3]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_counts_and_names():
    metrics = spec.END_TO_END + spec.EXTRAS + spec.PER_LAYER
    names = list(spec.WORKLOADS) + [metric.name for metric in metrics]
    assert len(spec.WORKLOADS) == 4
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(metric.unit) for metric in metrics)
    assert all(metric.better in ("lower", "higher") for metric in metrics)
    assert all(len(why) <= 200 for why in spec.WORKLOADS.values())


def test_bounds():
    by_name = {metric.name: metric for metric in spec.END_TO_END}
    assert by_name["setup_s"].unit == "s"
    assert by_name["setup_s"].better == "lower"
    bounds = [metric.bound for metric in spec.END_TO_END]
    assert all(0 <= bound <= 0.25 for bound in bounds)
    assert by_name["setup_s"].bound == max(bounds)
    assert all(metric.bound is None for metric in spec.PER_LAYER)
    known = set(spec.WORKLOADS)
    assert all(set(metric.workloads) <= known for metric in spec.EXTRAS)


def test_benchmark_json_is_the_spec():
    path = ROOT / "BENCHMARK.json"
    assert json.loads(path.read_text()) == spec.benchmark_json()
    assert path.stat().st_size <= 64 * 1024


def test_workload_classes_match_the_table():
    from benchmarks.e2e.workloads import WORKLOAD_CLASSES

    assert list(WORKLOAD_CLASSES) == list(spec.WORKLOADS)
    assert set(spec.F1_FLOORS) == set(spec.WORKLOADS)
