"""Unit tests for the paper's combined knowledge-fusion method."""

from repro.fusion.base import Claim
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.fusion.multitruth import MultiTruth
from repro.fusion.vote import Vote
from repro.synth.claims import ClaimWorldConfig, generate_claim_world


class TestCopierRobustness:
    def test_correlations_neutralise_copier_cliques(self):
        world = generate_claim_world(
            ClaimWorldConfig(seed=2, n_items=80, n_sources=8, copier_cliques=2)
        )
        without = KnowledgeFusion(
            use_source_correlations=False, use_extractor_correlations=False
        ).fuse(world.claims)
        with_corr = KnowledgeFusion(
            use_source_correlations=True, use_extractor_correlations=False
        ).fuse(world.claims)
        assert world.precision_of(with_corr.truths) > world.precision_of(
            without.truths
        )

    def test_beats_vote_with_copiers(self):
        world = generate_claim_world(
            ClaimWorldConfig(seed=3, n_items=60, n_sources=8, copier_cliques=2)
        )
        vote = Vote().fuse(world.claims)
        fused = KnowledgeFusion().fuse(world.claims)
        assert world.precision_of(fused.truths) > world.precision_of(
            vote.truths
        )


class TestHierarchyIntegration:
    def test_hierarchy_improves_f1(self):
        world = generate_claim_world(
            ClaimWorldConfig(seed=5, n_items=60, n_sources=8,
                             hierarchical=True)
        )

        def f1(truths):
            precision = world.precision_of(truths)
            recall = world.recall_of(truths)
            return (
                2 * precision * recall / (precision + recall)
                if precision + recall
                else 0.0
            )

        flat = KnowledgeFusion(hierarchy=None).fuse(world.claims)
        hier = KnowledgeFusion(hierarchy=world.hierarchy).fuse(world.claims)
        assert f1(hier.truths) > f1(flat.truths)


class TestFunctionalConstraint:
    def test_functional_items_single_truth(self):
        world = generate_claim_world(
            ClaimWorldConfig(seed=7, n_items=40, n_sources=8, false_pool=3,
                             source_accuracies=[0.55] * 8)
        )
        fused = KnowledgeFusion(functional_of=lambda p: True).fuse(
            world.claims
        )
        assert all(len(values) == 1 for values in fused.truths.values())

    def test_nonfunctional_items_allow_multiple(self):
        world = generate_claim_world(
            ClaimWorldConfig(seed=8, n_items=40, n_sources=8,
                             truths_per_item=2,
                             source_accuracies=[0.9] * 8)
        )
        fused = KnowledgeFusion(functional_of=lambda p: False).fuse(
            world.claims
        )
        multi = [v for v in fused.truths.values() if len(v) > 1]
        assert multi

    def test_functional_hierarchical_keeps_single_chain(self):
        world = generate_claim_world(
            ClaimWorldConfig(seed=9, n_items=30, n_sources=8,
                             hierarchical=True)
        )
        fused = KnowledgeFusion(
            hierarchy=world.hierarchy, functional_of=lambda p: True
        ).fuse(world.claims)
        view = fused  # decided values must lie on one chain per item
        from repro.fusion.hierarchy import CasefoldHierarchy

        chains = CasefoldHierarchy(world.hierarchy)
        for item, values in view.truths.items():
            ordered = sorted(values, key=chains.depth, reverse=True)
            deepest = ordered[0]
            assert all(
                chains.on_same_chain(deepest, value) for value in ordered
            )


class TestConfidence:
    def test_confidence_helps_when_informative(self):
        world = generate_claim_world(
            ClaimWorldConfig(
                seed=11, n_items=80, n_sources=8,
                source_accuracies=[0.6] * 8, false_pool=3,
                confidence_informative=True,
            )
        )
        off = KnowledgeFusion(
            use_confidence=False,
            use_source_correlations=False,
            use_extractor_correlations=False,
        ).fuse(world.claims)
        on = KnowledgeFusion(
            use_confidence=True,
            use_source_correlations=False,
            use_extractor_correlations=False,
        ).fuse(world.claims)
        assert world.precision_of(on.truths) >= world.precision_of(off.truths)


class TestGeneralBehaviour:
    def test_method_name(self):
        world = generate_claim_world(ClaimWorldConfig(seed=1, n_items=5))
        result = KnowledgeFusion().fuse(world.claims)
        assert result.method == "knowledge-fusion"

    def test_at_least_as_good_as_multitruth_baseline(self):
        world = generate_claim_world(
            ClaimWorldConfig(seed=13, n_items=80, n_sources=10,
                             copier_cliques=1)
        )
        baseline = MultiTruth().fuse(world.claims)
        fused = KnowledgeFusion().fuse(world.claims)
        assert world.precision_of(fused.truths) >= world.precision_of(
            baseline.truths
        )


class TestExtractorReweighting:
    def test_equals_rebuilding_every_claim(self):
        """Undiscounted claims are reused as they are; the outcome must
        read exactly as if each claim had been rebuilt with the clamped
        product — the sign of a zero confidence included."""
        confidences = [0.0, -0.0, 0.3, 1.0, 1.5, 0.7]
        claims = [
            Claim(("s", f"p{k}"), "v", "v", "src", f"ex{k % 2}", confidence)
            for k, confidence in enumerate(confidences)
        ]
        weights = {"ex0": 1.0, "ex1": 0.5}
        for use_confidence in (True, False):
            fusion = KnowledgeFusion(use_confidence=use_confidence)
            got = list(fusion._apply_extractor_weights(claims, weights))
            for before, after in zip(claims, got, strict=True):
                base = before.confidence if use_confidence else 1.0
                want = max(
                    0.0, min(1.0, base * weights[before.extractor_id])
                )
                assert repr(after.confidence) == repr(want)
                assert (after.item, after.value, after.source_id) == (
                    before.item, before.value, before.source_id
                )
