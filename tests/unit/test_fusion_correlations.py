"""Unit tests for correlation (copy) detection."""

import pytest

from repro.fusion.base import Claim, ClaimSet
from repro.fusion.correlations import UNWITNESSED_RARITY, CorrelationEstimator
from repro.synth.claims import ClaimWorldConfig, generate_claim_world
from tests.oracles.correlation_scan import CorrelationEstimatorScan


def claim(item, value, source, extractor="ex"):
    return Claim(item, value, value, source, extractor)


class TestValidation:
    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            CorrelationEstimator(by="planet")


class TestPairDependence:
    def test_perfect_copiers_high_dependence(self):
        claims = ClaimSet()
        for index in range(10):
            item = (f"e{index}", "a")
            value = f"v{index}"
            claims.add(claim(item, value, "left"))
            claims.add(claim(item, value, "right"))
            # Independent witnesses claiming other values make the
            # pair's persistent agreement on unseen values suspicious.
            claims.add(claim(item, f"w{index}-1", f"bg{index % 4}-1"))
            claims.add(claim(item, f"w{index}-2", f"bg{index % 4}-2"))
        estimate = CorrelationEstimator(min_common_items=3).estimate(claims)
        assert estimate.pair("left", "right") > 0.9

    def test_unwitnessed_agreement_weakly_informative(self):
        claims = ClaimSet()
        for index in range(10):
            item = (f"e{index}", "a")
            claims.add(claim(item, f"v{index}", "left"))
            claims.add(claim(item, f"v{index}", "right"))
        estimate = CorrelationEstimator(min_common_items=3).estimate(claims)
        # Two honest sources on two-source items look the same; the
        # dependence stays below the discount threshold.
        assert estimate.pair("left", "right") < 0.25

    def test_disagreeing_sources_low_dependence(self):
        claims = ClaimSet()
        for index in range(10):
            item = (f"e{index}", "a")
            claims.add(claim(item, f"v{index}-l", "left"))
            claims.add(claim(item, f"v{index}-r", "right"))
        estimate = CorrelationEstimator(min_common_items=3).estimate(claims)
        assert estimate.pair("left", "right") < 0.1

    def test_insufficient_overlap_skipped(self):
        claims = ClaimSet(
            [
                claim(("e1", "a"), "v", "left"),
                claim(("e1", "a"), "v", "right"),
            ]
        )
        estimate = CorrelationEstimator(min_common_items=3).estimate(claims)
        assert estimate.pair("left", "right") == 0.0

    def test_rare_agreement_weighs_more_than_popular(self):
        claims = ClaimSet()
        # Ten independent sources agree on the popular value for items
        # 0-9; 'a' and 'b' also agree, so their agreements are popular.
        for index in range(10):
            item = (f"e{index}", "x")
            for source in [f"s{i}" for i in range(10)] + ["a", "b"]:
                claims.add(claim(item, "popular", source))
        # 'c' and 'd' agree on values nobody else claims.
        for index in range(10):
            item = (f"e{index}", "x")
            claims.add(claim(item, f"rare{index}", "c"))
            claims.add(claim(item, f"rare{index}", "d"))
        estimate = CorrelationEstimator(min_common_items=3).estimate(claims)
        assert estimate.pair("c", "d") > estimate.pair("a", "b")


class TestWeights:
    def test_copiers_get_discounted(self):
        world = generate_claim_world(
            ClaimWorldConfig(seed=3, n_items=60, n_sources=6, copier_cliques=1)
        )
        estimate = CorrelationEstimator().estimate(world.claims)
        copier_weights = [
            estimate.weights[s] for s in world.copier_of
        ]
        independent_weights = [
            estimate.weights[s]
            for s in world.claims.sources()
            if s not in world.copier_of and not s.startswith("leader")
        ]
        assert max(copier_weights) < min(independent_weights)

    def test_weights_in_unit_interval(self):
        world = generate_claim_world(
            ClaimWorldConfig(seed=5, n_items=40, n_sources=6)
        )
        estimate = CorrelationEstimator().estimate(world.claims)
        assert all(0 < w <= 1 for w in estimate.weights.values())


class TestExtractorDimension:
    def test_correlates_extractors(self):
        claims = ClaimSet()
        for index in range(8):
            item = (f"e{index}", "a")
            claims.add(claim(item, f"v{index}", "s1", extractor="dom"))
            claims.add(claim(item, f"v{index}", "s2", extractor="domcopy"))
            claims.add(claim(item, f"w{index}", "s3", extractor="text"))
        estimate = CorrelationEstimator(
            by="extractor", min_common_items=3
        ).estimate(claims)
        assert estimate.pair("dom", "domcopy") > estimate.pair("dom", "text")


class TestWitnessBlending:
    """Regression tests for the <2-witness rarity cliff (ISSUE 9).

    ``_pair_dependence`` used to credit a flat 0.2 rarity to any
    agreement on an item with fewer than two independent witnesses,
    discarding the evidence of the one witness an item *did* have.
    Rarity is now blended between the uninformative prior (0.2) and
    the observed popularity, weighted by witness count; the ≥2-witness
    arithmetic is unchanged.
    """

    def test_single_dissenting_witness_crosses_threshold(self):
        # Pre-fix failing: every item has exactly ONE independent
        # witness, and it always disagrees with the left/right pair.
        # Old code scored a flat 0.2 (below the 0.25 discount
        # threshold); the blend gives 0.5*0.2 + 0.5*1.0 = 0.6.
        claims = ClaimSet()
        for index in range(10):
            item = (f"e{index}", "a")
            claims.add(claim(item, f"v{index}", "left"))
            claims.add(claim(item, f"v{index}", "right"))
            claims.add(claim(item, f"other{index}", "witness"))
        estimate = CorrelationEstimator(min_common_items=3).estimate(claims)
        assert estimate.pair("left", "right") == pytest.approx(0.6)
        assert estimate.pair("left", "right") >= 0.25

    def test_single_agreeing_witness_stays_weak(self):
        # One witness that always AGREES: popularity 1.0, so the blend
        # gives 0.5*0.2 + 0.5*0.0 = 0.1 — weaker than no witness at
        # all, as it should be.
        claims = ClaimSet()
        for index in range(10):
            item = (f"e{index}", "a")
            for source in ("left", "right", "witness"):
                claims.add(claim(item, f"v{index}", source))
        estimate = CorrelationEstimator(min_common_items=3).estimate(claims)
        assert estimate.pair("left", "right") == pytest.approx(0.1)
        assert estimate.pair("left", "right") < 0.25

    def test_two_source_world_pins_constant_dependence(self):
        # Audit outcome, documented + pinned: in a PURE two-source
        # world there are no witnesses, so dependence is exactly
        # 0.2 * |shared| / |union| regardless of the values' content.
        # Full agreement -> 0.2 (below threshold, never discounted).
        claims = ClaimSet()
        for index in range(10):
            item = (f"e{index}", "a")
            claims.add(claim(item, f"v{index}", "left"))
            claims.add(claim(item, f"v{index}", "right"))
        estimate = CorrelationEstimator(min_common_items=3).estimate(claims)
        assert estimate.pair("left", "right") == pytest.approx(0.2)

    def test_union_normalization_pinned(self):
        # Audit outcome, documented + pinned: the per-item divisor is
        # the pair's value-UNION size (Jaccard style), so private
        # disagreements dilute the score: each item shares one value
        # but unions three ({v, l, r}), giving 10 agreements at rarity
        # 0.2 over a union of 30.
        claims = ClaimSet()
        for index in range(10):
            item = (f"e{index}", "a")
            claims.add(claim(item, f"v{index}", "left"))
            claims.add(claim(item, f"v{index}", "right"))
            claims.add(claim(item, f"l{index}", "left"))
            claims.add(claim(item, f"r{index}", "right"))
        estimate = CorrelationEstimator(min_common_items=3).estimate(claims)
        assert estimate.pair("left", "right") == pytest.approx(
            (10 * 0.2) / 30
        )

    def test_two_or_more_witnesses_unchanged(self):
        # The ≥2-witness formula is byte-for-byte the pre-fix one:
        # two witnesses, one agreeing -> popularity 0.5, rarity 0.5.
        claims = ClaimSet()
        for index in range(10):
            item = (f"e{index}", "a")
            claims.add(claim(item, f"v{index}", "left"))
            claims.add(claim(item, f"v{index}", "right"))
            claims.add(claim(item, f"v{index}", "w1"))
            claims.add(claim(item, f"other{index}", "w2"))
        estimate = CorrelationEstimator(min_common_items=3).estimate(claims)
        assert estimate.pair("left", "right") == pytest.approx(0.5)


# ----------------------------------------------------------------------
# The estimator against its first-written form, float for float.

ORACLE_WORLDS = {
    "plain": ClaimWorldConfig(seed=5, n_items=80, n_sources=8),
    "multi-truth": ClaimWorldConfig(
        seed=6, n_items=60, n_sources=9, truths_per_item=2,
        source_accuracies=[0.85] * 9,
    ),
    "confidence": ClaimWorldConfig(
        seed=7, n_items=60, n_sources=8, confidence_informative=True,
    ),
    "copiers": ClaimWorldConfig(
        seed=8, n_items=60, n_sources=8, copier_cliques=2,
    ),
    "one-clique": ClaimWorldConfig(
        seed=3, n_items=60, n_sources=6, copier_cliques=1,
    ),
    "sparse": ClaimWorldConfig(
        seed=11, n_items=40, n_sources=12, coverage=0.3,
    ),
}


def _spread_over_extractors(claims, n_extractors):
    """The same claims, dealt round-robin to ``n_extractors`` extractors
    (the synthetic worlds know one)."""
    return [
        Claim(
            one.item, one.value, one.lexical, one.source_id,
            f"ex{index % n_extractors}", one.confidence,
        )
        for index, one in enumerate(claims)
    ]


def _assert_same_estimate(claims, **kwargs):
    claims = list(claims)
    got = CorrelationEstimator(**kwargs).estimate(claims)
    expected = CorrelationEstimatorScan(**kwargs).estimate(claims)
    assert got.dependence == expected.dependence
    assert list(got.dependence) == list(expected.dependence)
    assert got.weights == expected.weights
    assert list(got.weights) == list(expected.weights)
    return got


class TestEqualsTheScanOracle:
    """``==`` on ``dependence`` — key order included — and ``weights``
    against ``tests/oracles/correlation_scan.py``."""

    @pytest.mark.parametrize("world_name", sorted(ORACLE_WORLDS))
    @pytest.mark.parametrize("min_common_items", [1, 3, 10])
    def test_seeded_worlds_by_source(self, world_name, min_common_items):
        claims = generate_claim_world(ORACLE_WORLDS[world_name]).claims
        estimate = _assert_same_estimate(
            claims, min_common_items=min_common_items
        )
        assert set(estimate.weights) == claims.sources()

    @pytest.mark.parametrize("world_name", sorted(ORACLE_WORLDS))
    @pytest.mark.parametrize("n_extractors", [2, 3, 5])
    def test_seeded_worlds_by_extractor(self, world_name, n_extractors):
        claims = generate_claim_world(ORACLE_WORLDS[world_name]).claims
        estimate = _assert_same_estimate(
            _spread_over_extractors(claims, n_extractors), by="extractor"
        )
        assert len(estimate.dependence) == (
            n_extractors * (n_extractors - 1) // 2
        )

    def test_no_claims(self):
        estimate = _assert_same_estimate([])
        assert estimate.weights == {} and estimate.dependence == {}

    @pytest.mark.parametrize("by", ["source", "extractor"])
    def test_one_party(self, by):
        claims = [
            claim((f"e{index}", "a"), f"v{index % 3}", "only", "only-ex")
            for index in range(12)
        ]
        estimate = _assert_same_estimate(claims, by=by)
        assert estimate.dependence == {}
        assert list(estimate.weights.values()) == [1.0]

    def test_two_parties_without_witnesses(self):
        claims = []
        for index in range(10):
            item = (f"e{index}", "a")
            claims.append(claim(item, f"v{index}", "left"))
            claims.append(claim(item, f"v{index}", "right"))
        estimate = _assert_same_estimate(claims)
        assert list(estimate.dependence) == [("left", "right")]
        # Ten agreements at the unwitnessed rarity over a union of ten.
        assert estimate.pair("left", "right") == pytest.approx(
            UNWITNESSED_RARITY
        )

    def test_no_qualifying_pair(self):
        # Twelve sources, every pair sharing exactly two items.
        claims = [
            claim((f"e{left}-{right}-{k}", "a"), "v", f"s{source:02d}")
            for left in range(12)
            for right in range(left + 1, 12)
            for k in range(2)
            for source in (left, right)
        ]
        estimate = _assert_same_estimate(claims, min_common_items=3)
        assert estimate.dependence == {}
        assert set(estimate.weights.values()) == {1.0}
        # ... and one below the bar they all qualify.
        estimate = _assert_same_estimate(claims, min_common_items=2)
        assert len(estimate.dependence) == 66

    def test_copier_clique_among_witnesses(self):
        claims = []
        for index in range(12):
            item = (f"e{index}", "a")
            for copier in ("c1", "c2", "c3", "c4"):
                claims.append(claim(item, f"odd{index}", copier))
            claims.append(claim(item, f"v{index}", "w1"))
            claims.append(claim(item, f"v{index}", "w2"))
            if index % 3 == 0:
                claims.append(claim(item, f"odd{index}", "w3"))
        estimate = _assert_same_estimate(claims)
        clique = [estimate.weights[c] for c in ("c1", "c2", "c3", "c4")]
        assert max(clique) < min(
            estimate.weights[w] for w in ("w1", "w2", "w3")
        )

    def test_a_source_claiming_two_values_of_an_item(self):
        claims = []
        for index in range(8):
            item = (f"e{index}", "a")
            claims.append(claim(item, "x", "left"))
            claims.append(claim(item, "y", "left"))
            claims.append(claim(item, "y", "right"))
            claims.append(claim(item, "z", "right"))
            claims.append(claim(item, "z" if index % 2 else "y", "w"))
        _assert_same_estimate(claims)

    @pytest.mark.parametrize("by", ["source", "extractor"])
    def test_one_shot_iterable(self, by):
        """A generator is read once and estimated like the list (the
        scan read its claims twice: an empty claimant table, and a
        ``KeyError`` as soon as a pair qualified)."""
        claims = _spread_over_extractors(
            generate_claim_world(ORACLE_WORLDS["copiers"]).claims, 3
        )
        expected = CorrelationEstimatorScan(by=by).estimate(claims)
        assert expected.dependence
        got = CorrelationEstimator(by=by).estimate(one for one in claims)
        assert got == expected
        assert list(got.dependence) == list(expected.dependence)
        with pytest.raises(KeyError):
            CorrelationEstimatorScan(by=by).estimate(one for one in claims)
