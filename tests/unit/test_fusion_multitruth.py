"""Unit tests for the multi-truth Bayesian model."""

import pytest

from repro.errors import FusionError
from repro.fusion.base import Claim, ClaimSet
from repro.fusion.multitruth import MultiTruth
from repro.fusion.vote import Vote
from repro.synth.claims import ClaimWorldConfig, generate_claim_world
from tests.oracles.fusion_loops import MultiTruthLoops, assert_same_result


def claim(item, value, source, confidence=1.0):
    return Claim(item, value, value, source, "ex", confidence)


class TestValidation:
    def test_bad_prior(self):
        with pytest.raises(FusionError):
            MultiTruth(prior=0.0)

    def test_bad_threshold(self):
        with pytest.raises(FusionError):
            MultiTruth(threshold=1.0)


class TestMultiTruthDecisions:
    def test_multiple_truths_decided(self):
        # Three of four sources assert both values; both should pass.
        claims = ClaimSet(
            [
                claim(("film", "cast"), "alice", "s1"),
                claim(("film", "cast"), "bob", "s1"),
                claim(("film", "cast"), "alice", "s2"),
                claim(("film", "cast"), "bob", "s2"),
                claim(("film", "cast"), "alice", "s3"),
                claim(("film", "cast"), "bob", "s3"),
                claim(("film", "cast"), "carol", "s4"),
            ]
        )
        result = MultiTruth().fuse(claims)
        assert {"alice", "bob"} <= result.truths[("film", "cast")]
        assert "carol" not in result.truths[("film", "cast")]

    def test_never_returns_empty_decision(self):
        claims = ClaimSet([claim(("s", "p"), "lonely", "s1")])
        result = MultiTruth(prior=0.05).fuse(claims)
        assert result.truths[("s", "p")] == {"lonely"}

    def test_posteriors_are_probabilities(self):
        world = generate_claim_world(
            ClaimWorldConfig(seed=2, n_items=30, n_sources=6)
        )
        result = MultiTruth().fuse(world.claims)
        assert all(0 <= p <= 1 for p in result.belief.values())

    def test_outperforms_vote_on_multi_truth_items(self):
        world = generate_claim_world(
            ClaimWorldConfig(
                seed=9, n_items=60, n_sources=10, truths_per_item=2,
                source_accuracies=[0.85] * 10,
            )
        )
        vote_result = Vote().fuse(world.claims)
        multi_result = MultiTruth().fuse(world.claims)
        # VOTE picks exactly one value, capping recall near 50%.
        assert world.recall_of(vote_result.truths) < 0.6
        assert world.recall_of(multi_result.truths) > (
            world.recall_of(vote_result.truths) + 0.2
        )

    def test_quality_estimates_separate_good_and_bad(self):
        world = generate_claim_world(
            ClaimWorldConfig(
                seed=4, n_items=80, n_sources=8,
                source_accuracies=[0.95, 0.95, 0.95, 0.9, 0.4, 0.4, 0.35, 0.35],
                false_pool=3,
            )
        )
        result = MultiTruth().fuse(world.claims)
        good = [s for s, a in world.source_accuracy.items() if a > 0.85]
        bad = [s for s, a in world.source_accuracy.items() if a < 0.5]
        avg = lambda xs: sum(result.source_quality[s] for s in xs) / len(xs)
        assert avg(good) > avg(bad)

    def test_converges(self):
        world = generate_claim_world(
            ClaimWorldConfig(seed=7, n_items=40, n_sources=6)
        )
        result = MultiTruth(max_iterations=50).fuse(world.claims)
        assert result.iterations < 50


class TestConfidenceHandling:
    def test_confidence_tempered_evidence(self):
        # Two bold wrong sources vs three timid right ones: with
        # confidence on, the timid majority still wins because the
        # bold pair's ratio is not amplified.
        claims = ClaimSet(
            [
                claim(("s", "p"), "wrong", "w1", confidence=1.0),
                claim(("s", "p"), "wrong", "w2", confidence=1.0),
                claim(("s", "p"), "right", "r1", confidence=0.9),
                claim(("s", "p"), "right", "r2", confidence=0.9),
                claim(("s", "p"), "right", "r3", confidence=0.9),
            ]
        )
        result = MultiTruth(use_confidence=True).fuse(claims)
        assert "right" in result.truths[("s", "p")]

    def test_informative_confidence_helps(self):
        base_config = dict(
            seed=13, n_items=70, n_sources=8,
            source_accuracies=[0.6] * 8, false_pool=3,
        )
        world = generate_claim_world(
            ClaimWorldConfig(confidence_informative=True, **base_config)
        )
        without = MultiTruth(use_confidence=False).fuse(world.claims)
        with_conf = MultiTruth(use_confidence=True).fuse(world.claims)
        assert world.precision_of(with_conf.truths) >= world.precision_of(
            without.truths
        )

    @pytest.mark.parametrize("use_confidence", [False, True])
    def test_a_pair_claimed_twice_counts_once_at_its_best(
        self, use_confidence
    ):
        """One source, one pair, two extractors: the source is one
        claimer of the pair, at the larger confidence."""
        others = [
            claim(("s", "p"), "right", "r2", confidence=0.8),
            claim(("s", "p"), "wrong", "w1", confidence=0.7),
            claim(("s", "q"), "only", "r1", confidence=0.5),
        ]
        twice = ClaimSet(
            [
                Claim(("s", "p"), "right", "right", "r1", "dom", 0.3),
                Claim(("s", "p"), "right", "right", "r1", "text", 0.9),
                *others,
            ]
        )
        once = ClaimSet(
            [Claim(("s", "p"), "right", "right", "r1", "text", 0.9), *others]
        )
        method = MultiTruth(
            use_confidence=use_confidence,
            source_weights={"r1": 0.6, "w1": 0.9},
        )
        assert method.fuse(twice).belief == method.fuse(once).belief
        assert_same_result(
            method.fuse(twice),
            MultiTruthLoops(
                use_confidence=use_confidence,
                source_weights={"r1": 0.6, "w1": 0.9},
            ).fuse(twice),
        )


class TestSourceWeights:
    def test_weights_discount_copier_clique(self):
        world = generate_claim_world(
            ClaimWorldConfig(seed=2, n_items=60, n_sources=8, copier_cliques=2)
        )
        weights = {
            source: (0.25 if source in world.copier_of else 1.0)
            for source in world.claims.sources()
        }
        unweighted = MultiTruth().fuse(world.claims)
        weighted = MultiTruth(source_weights=weights).fuse(world.claims)
        assert world.precision_of(weighted.truths) > world.precision_of(
            unweighted.truths
        )
