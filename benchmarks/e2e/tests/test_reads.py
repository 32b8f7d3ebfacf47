"""The fixed read block costs the same in every block, for every seed."""

import random
from types import SimpleNamespace

from benchmarks.e2e.spec import BLOCK_READS
from benchmarks.e2e.workloads import read_plan

# Subject i has i predicates: a scan of it costs i lookups.
WIDTHS = {f"s{i:03d}": i for i in range(1, 81)}


class _Store:
    def subjects(self):
        return list(WIDTHS)

    def predicates(self, subject):
        return [f"p{j:02d}" for j in range(WIDTHS[subject])]


def _version():
    # Predicate j is held by every subject wider than j.
    truths = {
        (subject, predicate): {"v"}
        for subject in WIDTHS
        for predicate in _Store().predicates(subject)
    }
    result = SimpleNamespace(truths=truths)
    return SimpleNamespace(store=_Store(), result=result)


def _scan_costs(seed, blocks=12):
    plan = read_plan(_version(), random.Random(seed), blocks)
    assert len(plan) == blocks * BLOCK_READS
    costs = []
    for start in range(0, len(plan), BLOCK_READS):
        block = plan[start:start + BLOCK_READS]
        kinds = [kind for kind, _s, _p in block]
        assert kinds.count("lookup") == 88
        assert kinds.count("scan_subject") == 4
        assert kinds.count("scan_predicate") == 4
        assert kinds.count("top_entities") == 4
        widths = sorted(
            WIDTHS[subject] for kind, subject, _p in block
            if kind == "scan_subject"
        )
        # One scanned subject from each quartile of the widths.
        assert [(width - 1) // 20 for width in widths] == [0, 1, 2, 3]
        costs.append(sum(widths))
    return costs


def test_every_block_scans_the_same_mix_whatever_the_seed():
    for seed in range(5):
        costs = _scan_costs(seed)
        assert max(costs) - min(costs) <= 0.05 * min(costs)


def test_same_seed_same_plan_other_seed_other_plan():
    plan = read_plan(_version(), random.Random(3), 2)
    assert plan == read_plan(_version(), random.Random(3), 2)
    assert plan != read_plan(_version(), random.Random(4), 2)

