"""Inputs are a function of the seed alone."""

import pytest

from benchmarks.e2e.spec import RUN_SECONDS, WORKLOADS
from benchmarks.e2e.workloads import WORKLOAD_CLASSES


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    workload = WORKLOAD_CLASSES[name]()
    sizes = workload.sizes(RUN_SECONDS, trace=False, smoke=True)

    def digest(seed):
        return workload.input_digest(workload.generate(seed, sizes))

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def test_seconds_scale_repeat_counts_only():
    workload = WORKLOAD_CLASSES["shard_segment"]()
    full = workload.sizes(RUN_SECONDS, trace=False, smoke=False)
    half = workload.sizes(RUN_SECONDS / 2, trace=False, smoke=False)
    changed = {key for key in full if full[key] != half[key]}
    assert changed == set(workload.SCALED)
    assert half["deltas"] == full["deltas"] // 2
