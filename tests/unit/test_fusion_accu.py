"""Unit tests for ACCU and POPACCU."""

import pytest

from repro.fusion.accu import Accu, PopAccu
from repro.fusion.base import Claim, ClaimSet
from repro.fusion.vote import Vote
from repro.synth.claims import ClaimWorldConfig, generate_claim_world


def claim(item, value, source):
    return Claim(item, value, value, source, "ex")


def skewed_world(seed=21):
    """Sources with very unequal accuracy; VOTE struggles, ACCU should not."""
    return generate_claim_world(
        ClaimWorldConfig(
            seed=seed,
            n_items=80,
            n_sources=9,
            source_accuracies=[0.95, 0.9, 0.9, 0.45, 0.45, 0.45, 0.4, 0.4, 0.4],
            false_pool=3,
        )
    )


class TestAccu:
    def test_learns_source_accuracy(self):
        world = skewed_world()
        result = Accu().fuse(world.claims)
        learned = result.source_quality
        good = [s for s, a in world.source_accuracy.items() if a > 0.8]
        bad = [s for s, a in world.source_accuracy.items() if a < 0.5]
        avg_good = sum(learned[s] for s in good) / len(good)
        avg_bad = sum(learned[s] for s in bad) / len(bad)
        assert avg_good > avg_bad + 0.15

    def test_beats_vote_on_skewed_sources(self):
        world = skewed_world()
        vote = world.precision_of(Vote().fuse(world.claims).truths)
        accu = world.precision_of(Accu().fuse(world.claims).truths)
        assert accu > vote

    def test_single_truth_decisions(self):
        world = skewed_world()
        result = Accu().fuse(world.claims)
        assert all(len(values) == 1 for values in result.truths.values())

    def test_probabilities_normalised(self):
        claims = ClaimSet(
            [
                claim(("s", "p"), "a", "s1"),
                claim(("s", "p"), "b", "s2"),
            ]
        )
        result = Accu().fuse(claims)
        total = sum(
            belief
            for (item, _), belief in result.belief.items()
            if item == ("s", "p")
        )
        assert total == pytest.approx(1.0)

    def test_initial_accuracies_respected(self):
        claims = ClaimSet(
            [
                claim(("s", "p"), "a", "trusted"),
                claim(("s", "p"), "b", "shaky"),
            ]
        )
        result = Accu(
            initial_accuracies={"trusted": 0.95, "shaky": 0.1},
            max_iterations=1,
        ).fuse(claims)
        assert result.truths[("s", "p")] == {"a"}

    def test_converges(self):
        world = skewed_world()
        result = Accu(max_iterations=50).fuse(world.claims)
        assert result.iterations < 50

    def test_accuracy_bounds_clamped(self):
        world = skewed_world()
        result = Accu().fuse(world.claims)
        assert all(0.05 <= a <= 0.99 for a in result.source_quality.values())


class TestPopAccu:
    def test_beats_vote_on_skewed_sources(self):
        world = skewed_world(seed=5)
        vote = world.precision_of(Vote().fuse(world.claims).truths)
        popaccu = world.precision_of(PopAccu().fuse(world.claims).truths)
        assert popaccu >= vote

    def test_comparable_to_accu(self):
        world = skewed_world(seed=6)
        accu = world.precision_of(Accu().fuse(world.claims).truths)
        popaccu = world.precision_of(PopAccu().fuse(world.claims).truths)
        assert abs(accu - popaccu) < 0.15

    def test_empty_item_handled(self):
        claims = ClaimSet([claim(("s", "p"), "a", "s1")])
        result = PopAccu().fuse(claims)
        assert result.truths[("s", "p")] == {"a"}
