"""Unit tests for the generalized fact-finders (Sums, Investment)."""

import pytest

from repro.fusion.base import Claim, ClaimSet
from repro.fusion.confidence_weighted import GeneralizedSums, Investment
from repro.synth.claims import ClaimWorldConfig, generate_claim_world


def claim(item, value, source, confidence=1.0):
    return Claim(item, value, value, source, "ex", confidence)


def informative_world(seed=23):
    return generate_claim_world(
        ClaimWorldConfig(
            seed=seed, n_items=80, n_sources=8,
            source_accuracies=[0.6] * 8, false_pool=3,
            confidence_informative=True,
        )
    )


class TestGeneralizedSums:
    def test_majority_recovered(self):
        claims = ClaimSet(
            [
                claim(("s", "p"), "a", "s1"),
                claim(("s", "p"), "a", "s2"),
                claim(("s", "p"), "b", "s3"),
            ]
        )
        result = GeneralizedSums().fuse(claims)
        assert result.truths[("s", "p")] == {"a"}

    def test_confidence_shifts_decision(self):
        claims = ClaimSet(
            [
                claim(("s", "p"), "a", "s1", confidence=0.95),
                claim(("s", "p"), "b", "s2", confidence=0.1),
                claim(("s", "p"), "b", "s3", confidence=0.1),
            ]
        )
        assert GeneralizedSums(use_confidence=True).fuse(claims).truths[
            ("s", "p")
        ] == {"a"}
        assert GeneralizedSums(use_confidence=False).fuse(claims).truths[
            ("s", "p")
        ] == {"b"}

    def test_trust_normalised(self):
        world = informative_world()
        result = GeneralizedSums().fuse(world.claims)
        assert max(result.source_quality.values()) == pytest.approx(1.0)
        assert all(0 <= t <= 1 for t in result.source_quality.values())

    def test_confidence_improves_precision_when_informative(self):
        world = informative_world()
        base = GeneralizedSums(use_confidence=False).fuse(world.claims)
        weighted = GeneralizedSums(use_confidence=True).fuse(world.claims)
        assert world.precision_of(weighted.truths) > world.precision_of(
            base.truths
        )

    def test_converges(self):
        world = informative_world()
        result = GeneralizedSums(max_iterations=100).fuse(world.claims)
        assert result.iterations < 100


class TestInvestment:
    def test_a_source_of_zero_total_confidence_stakes_nothing(self):
        """Its shares used to divide by its 0.0 total and raise."""
        claims = ClaimSet(
            [
                claim(("s", "p"), "a", "s1", confidence=0.0),
                claim(("s", "p"), "b", "s2", confidence=0.9),
            ]
        )
        result = Investment().fuse(claims)
        assert result.truths[("s", "p")] == {"b"}
        assert result.source_quality == {"s1": 0.0, "s2": 1.0}

    def test_majority_recovered(self):
        claims = ClaimSet(
            [
                claim(("s", "p"), "a", "s1"),
                claim(("s", "p"), "a", "s2"),
                claim(("s", "p"), "b", "s3"),
            ]
        )
        result = Investment().fuse(claims)
        assert result.truths[("s", "p")] == {"a"}

    def test_confidence_improves_precision_when_informative(self):
        world = informative_world(seed=29)
        base = Investment(use_confidence=False).fuse(world.claims)
        weighted = Investment(use_confidence=True).fuse(world.claims)
        assert world.precision_of(weighted.truths) >= world.precision_of(
            base.truths
        )

    def test_beliefs_normalised_per_item(self):
        world = informative_world(seed=31)
        result = Investment().fuse(world.claims)
        by_item = {}
        for (item, _value), belief in result.belief.items():
            by_item.setdefault(item, []).append(belief)
        assert all(max(beliefs) == pytest.approx(1.0) for beliefs in
                   by_item.values())
