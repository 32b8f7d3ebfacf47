"""Unit tests for the synthetic claim-world generator."""

import pytest

from repro.errors import GenerationError
from repro.synth.claims import ClaimWorldConfig, generate_claim_world


class TestValidation:
    def test_zero_items_rejected(self):
        with pytest.raises(GenerationError):
            generate_claim_world(ClaimWorldConfig(n_items=0))

    def test_bad_coverage_rejected(self):
        with pytest.raises(GenerationError):
            generate_claim_world(ClaimWorldConfig(coverage=0))

    def test_zero_truths_rejected(self):
        with pytest.raises(GenerationError):
            generate_claim_world(ClaimWorldConfig(truths_per_item=0))


class TestStructure:
    def test_accuracy_controls_quality(self):
        good = generate_claim_world(
            ClaimWorldConfig(seed=1, n_items=80,
                             source_accuracies=[0.95] * 10)
        )
        bad = generate_claim_world(
            ClaimWorldConfig(seed=1, n_items=80,
                             source_accuracies=[0.4] * 10)
        )

        def true_share(world):
            total = correct = 0
            for claim in world.claims:
                total += 1
                correct += claim.value in world.expanded_truths(claim.item)
            return correct / total

        assert true_share(good) > 0.9
        assert true_share(bad) < 0.6

    def test_coverage_controls_volume(self):
        dense = generate_claim_world(
            ClaimWorldConfig(seed=2, n_items=60, coverage=1.0)
        )
        sparse = generate_claim_world(
            ClaimWorldConfig(seed=2, n_items=60, coverage=0.4)
        )
        assert len(dense.claims) > len(sparse.claims) * 1.5

    def test_copier_cliques_add_sources(self):
        world = generate_claim_world(
            ClaimWorldConfig(seed=3, n_items=30, n_sources=5,
                             copier_cliques=2, clique_size=3)
        )
        # 5 independents + 2 leaders + 6 copiers.
        assert len(world.claims.sources()) == 13
        assert len(world.copier_of) == 6

    def test_hierarchical_truths_have_chains(self):
        world = generate_claim_world(
            ClaimWorldConfig(seed=4, n_items=10, hierarchical=True)
        )
        for truths in world.truths.values():
            for truth in truths:
                assert world.hierarchy.depth(truth) == 2

    def test_informative_confidence_separates_truth(self):
        world = generate_claim_world(
            ClaimWorldConfig(
                seed=5, n_items=80, confidence_informative=True,
                source_accuracies=[0.6] * 8, n_sources=8,
            )
        )
        true_conf = []
        false_conf = []
        for claim in world.claims:
            if claim.value in world.expanded_truths(claim.item):
                true_conf.append(claim.confidence)
            else:
                false_conf.append(claim.confidence)
        assert sum(true_conf) / len(true_conf) > (
            sum(false_conf) / len(false_conf) + 0.2
        )

    def test_precision_and_recall_helpers(self):
        world = generate_claim_world(ClaimWorldConfig(seed=6, n_items=10))
        # Deciding one wrong value per item → precision 0.
        wrong = {item: {"false-000-0"} for item in world.truths}
        assert world.precision_of(wrong) <= 0.1
        assert world.recall_of(wrong) == 0.0
        assert world.precision_of({}) == 0.0
