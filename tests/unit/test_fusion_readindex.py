"""Unit tests for the read index builder, :func:`repro.fusion.readindex.patched`.

Beliefs here are chosen so that summing a subject's values in another
order than ``truths`` order gives another float: a patch that
re-sums out of order, or adjusts a score by a difference, fails.
"""

import copy

import pytest

from repro.fusion.base import FusionResult
from repro.fusion.readindex import ReadIndex, patched
from tests.oracles import read_index as oracle


def _result(truths, belief):
    return FusionResult(
        "test",
        truths={item: frozenset(values) for item, values in truths.items()},
        belief=belief,
    )


# "s" sums 0.1, 0.2, 0.3 in truths order: 0.6000000000000001, where
# 0.3 + 0.2 + 0.1 is 0.6.
BEFORE = _result(
    {
        ("s", "c"): ["x"],
        ("a", "p"): ["y"],
        ("s", "b"): ["x"],
        ("t", "p"): ["z"],
        ("s", "a"): ["x"],
        ("u", "q"): [],
    },
    {
        (("s", "c"), "x"): 0.1,
        (("a", "p"), "y"): 0.6,
        (("s", "b"), "x"): 0.2,
        (("t", "p"), "z"): 0.6000000000000001,
        (("s", "a"), "x"): 0.3,
    },
)


def _expected(result):
    ranking = oracle.ranking(result)
    return ReadIndex(
        {subject: score for score, subject in ranking},
        [(-score, subject) for score, subject in ranking],
        {
            predicate: tuple(subjects)
            for predicate, subjects in oracle.by_predicate(result).items()
        },
    )


def test_the_cold_build_is_the_oracle_walk():
    index = patched(None, BEFORE)
    assert index == _expected(BEFORE)
    assert index.scores["s"] == 0.6000000000000001
    # A tie on the score breaks on the subject; "u" holds no value.
    assert index.ranking == [
        (-0.6000000000000001, "s"), (-0.6000000000000001, "t"), (-0.6, "a"),
    ]
    assert index.by_predicate == {
        "a": ("s",), "b": ("s",), "c": ("s",), "p": ("a", "t"),
    }


@pytest.mark.parametrize("filler", [0, 200], ids=["bulk", "bisected"])
def test_a_patch_equals_the_cold_build_and_leaves_its_prior(filler):
    """``s`` loses ("s", "b"), ``t`` its only value, ``v`` is new; the
    untouched filler subjects make the change a small share (the
    bisected path) or leave it the whole index (filtered and sorted)."""
    others = {(f"f{n:03}", "p"): ["w"] for n in range(filler)}
    others_belief = {(item, "w"): n / 7 for n, item in enumerate(others)}
    before = _result(
        {**{item: list(BEFORE.truths[item]) for item in BEFORE.truths},
         **others},
        {**BEFORE.belief, **others_belief},
    )
    after = _result(
        {
            ("s", "c"): ["x"],
            ("a", "p"): ["y"],
            ("t", "p"): [],
            ("s", "a"): ["x"],
            ("u", "q"): [],
            ("v", "q"): ["x"],
            **others,
        },
        {
            (("s", "c"), "x"): 0.1,
            (("a", "p"), "y"): 0.6,
            (("s", "a"), "x"): 0.3,
            (("v", "q"), "x"): 0.4,
            **others_belief,
        },
    )
    prior = patched(None, before)
    kept = copy.deepcopy(prior)
    index = patched(
        prior,
        after,
        [("s", "c"), ("t", "p"), ("s", "a"), ("v", "q"), ("s", "b")],
    )
    assert index == _expected(after)
    assert index.scores["s"] == 0.1 + 0.3
    assert "t" not in index.scores
    assert index.by_predicate["q"] == ("v",)
    assert "b" not in index.by_predicate
    assert prior == kept
