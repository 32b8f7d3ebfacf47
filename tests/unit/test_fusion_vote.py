"""Unit tests for VOTE."""

from repro.fusion.base import Claim, ClaimSet
from repro.fusion.vote import Vote


def claim(item, value, source, confidence=1.0):
    return Claim(item, value, value, source, "ex", confidence)


class TestVote:
    def test_majority_wins(self):
        claims = ClaimSet(
            [
                claim(("s", "p"), "a", "s1"),
                claim(("s", "p"), "a", "s2"),
                claim(("s", "p"), "b", "s3"),
            ]
        )
        result = Vote().fuse(claims)
        assert result.truths[("s", "p")] == {"a"}

    def test_counts_distinct_sources_not_claims(self):
        claims = ClaimSet(
            [
                # same source asserting twice via different extractors
                Claim(("s", "p"), "a", "a", "s1", "ex1"),
                Claim(("s", "p"), "a", "a", "s1", "ex2"),
                claim(("s", "p"), "b", "s2"),
                claim(("s", "p"), "b", "s3"),
            ]
        )
        result = Vote().fuse(claims)
        assert result.truths[("s", "p")] == {"b"}

    def test_tie_breaks_lexicographically(self):
        claims = ClaimSet(
            [claim(("s", "p"), "b", "s1"), claim(("s", "p"), "a", "s2")]
        )
        result = Vote().fuse(claims)
        assert result.truths[("s", "p")] == {"a"}

    def test_single_truth_per_item(self):
        claims = ClaimSet(
            [claim(("s", "p"), "a", "s1"), claim(("s", "q"), "b", "s1")]
        )
        result = Vote().fuse(claims)
        assert all(len(values) == 1 for values in result.truths.values())

    def test_beliefs_sum_to_one_per_item(self):
        claims = ClaimSet(
            [
                claim(("s", "p"), "a", "s1"),
                claim(("s", "p"), "b", "s2"),
                claim(("s", "p"), "b", "s3"),
            ]
        )
        result = Vote().fuse(claims)
        total = sum(
            belief
            for (item, _value), belief in result.belief.items()
            if item == ("s", "p")
        )
        assert abs(total - 1.0) < 1e-9

    def test_recovers_truth_on_synthetic_world(self):
        from repro.synth.claims import ClaimWorldConfig, generate_claim_world

        world = generate_claim_world(
            ClaimWorldConfig(seed=11, n_items=50, n_sources=9)
        )
        result = Vote().fuse(world.claims)
        assert world.precision_of(result.truths) > 0.8
