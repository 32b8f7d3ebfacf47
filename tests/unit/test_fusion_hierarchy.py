"""Unit tests for hierarchy-aware fusion."""

import pytest

from repro.fusion.accu import Accu
from repro.fusion.base import Claim, ClaimSet
from repro.fusion.hierarchy import CasefoldHierarchy, HierarchicalFusion
from repro.fusion.multitruth import MultiTruth
from repro.rdf.hierarchy import ValueHierarchy
from repro.synth.claims import ClaimWorldConfig, generate_claim_world
from tests.oracles.fusion_loops import assert_same_result
from tests.oracles.hierarchy_walk import HierarchicalFusionEveryItem


def claim(item, value, source):
    return Claim(item, value.casefold(), value, source, "ex")


@pytest.fixture
def locations():
    hierarchy = ValueHierarchy()
    hierarchy.add_chain(["Adelaide", "South Australia", "Australia"])
    hierarchy.add_chain(["Wuhan", "Hubei", "China"])
    return hierarchy


class TestCasefoldHierarchy:
    def test_ancestors_casefolded(self, locations):
        view = CasefoldHierarchy(locations)
        assert view.ancestors("adelaide") == ["south australia", "australia"]

    def test_depth(self, locations):
        view = CasefoldHierarchy(locations)
        assert view.depth("adelaide") == 2
        assert view.depth("australia") == 0

    def test_on_same_chain(self, locations):
        view = CasefoldHierarchy(locations)
        assert view.on_same_chain("adelaide", "australia")
        assert not view.on_same_chain("adelaide", "china")

    def test_contains(self, locations):
        view = CasefoldHierarchy(locations)
        assert "wuhan" in view
        assert "mars" not in view


class TestHierarchicalFusion:
    def test_invalid_decay_rejected(self, locations):
        with pytest.raises(ValueError):
            HierarchicalFusion(Accu(), locations, decay=0)

    def test_invalid_share_rejected(self, locations):
        with pytest.raises(ValueError):
            HierarchicalFusion(Accu(), locations, specialize_share=0)

    def test_related_values_support_each_other(self, locations):
        # Three sources: Adelaide, South Australia, Australia — all on
        # one chain — vs two sources on the wrong value.  Flat fusion
        # splits the chain's votes; hierarchical fusion pools them.
        claims = ClaimSet(
            [
                claim(("fang", "birth place"), "Adelaide", "s1"),
                claim(("fang", "birth place"), "South Australia", "s2"),
                claim(("fang", "birth place"), "Australia", "s3"),
                claim(("fang", "birth place"), "Wuhan", "s4"),
                claim(("fang", "birth place"), "Wuhan", "s5"),
            ]
        )
        flat = Accu().fuse(claims)
        assert flat.truths[("fang", "birth place")] == {"wuhan"}
        fused = HierarchicalFusion(Accu(), locations).fuse(claims)
        decided = fused.truths[("fang", "birth place")]
        assert "wuhan" not in decided
        assert decided & {"adelaide", "south australia", "australia"}

    def test_specialises_to_leaf(self, locations):
        claims = ClaimSet(
            [
                claim(("fang", "birth place"), "Adelaide", "s1"),
                claim(("fang", "birth place"), "Adelaide", "s2"),
                claim(("fang", "birth place"), "Australia", "s3"),
            ]
        )
        fused = HierarchicalFusion(Accu(), locations).fuse(claims)
        assert "adelaide" in fused.truths[("fang", "birth place")]

    def test_chain_generalisations_reported_true(self, locations):
        claims = ClaimSet(
            [
                claim(("fang", "birth place"), "Adelaide", "s1"),
                claim(("fang", "birth place"), "Adelaide", "s2"),
                claim(("fang", "birth place"), "Australia", "s3"),
            ]
        )
        fused = HierarchicalFusion(Accu(), locations).fuse(claims)
        decided = fused.truths[("fang", "birth place")]
        # Australia was observed and generalises the winner: also true.
        assert "australia" in decided

    def test_weak_minority_leaf_not_specialised(self, locations):
        claims = ClaimSet(
            [claim(("f", "bp"), "Australia", f"s{i}") for i in range(9)]
            + [claim(("f", "bp"), "Adelaide", "s9")]
        )
        fused = HierarchicalFusion(
            Accu(), locations, specialize_share=0.5
        ).fuse(claims)
        assert "adelaide" not in fused.truths[("f", "bp")]

    def test_non_hierarchical_values_untouched(self, locations):
        claims = ClaimSet(
            [
                claim(("b", "author"), "Jane", "s1"),
                claim(("b", "author"), "Jane", "s2"),
                claim(("b", "author"), "Tom", "s3"),
            ]
        )
        fused = HierarchicalFusion(Accu(), locations).fuse(claims)
        assert fused.truths[("b", "author")] == {"jane"}

    def test_improves_f1_on_hierarchical_world(self, locations):
        world = generate_claim_world(
            ClaimWorldConfig(
                seed=17, n_items=50, n_sources=8, hierarchical=True
            )
        )
        flat = Accu().fuse(world.claims)
        fused = HierarchicalFusion(Accu(), world.hierarchy).fuse(world.claims)

        def f1(truths):
            precision = world.precision_of(truths)
            recall = world.recall_of(truths)
            return (
                2 * precision * recall / (precision + recall)
                if precision + recall
                else 0.0
            )

        assert f1(fused.truths) > f1(flat.truths)

    def test_works_with_multitruth_base(self, locations):
        world = generate_claim_world(
            ClaimWorldConfig(seed=19, n_items=30, n_sources=6,
                             hierarchical=True)
        )
        fused = HierarchicalFusion(MultiTruth(), world.hierarchy).fuse(
            world.claims
        )
        assert world.precision_of(fused.truths) > 0.8

    def test_method_name_wraps_base(self, locations):
        assert HierarchicalFusion(Accu(), locations).name == "hier(accu)"


class TestSpecializeShortcut:
    """An item none of whose values is a hierarchy node keeps its
    winners as they stand — the same truths as walking its chains
    (``tests/oracles/hierarchy_walk.py``)."""

    @staticmethod
    def _mixed_world():
        """A hierarchical world and a flat one side by side, plus items
        mixing chain values, roots and values off every chain."""
        hier = generate_claim_world(
            ClaimWorldConfig(
                seed=17, n_items=40, n_sources=8, hierarchical=True
            )
        )
        flat = generate_claim_world(
            ClaimWorldConfig(seed=5, n_items=40, n_sources=8, false_pool=3)
        )
        root = sorted(hier.hierarchy.roots())[0]
        leaf = sorted(
            value for value in hier.hierarchy
            if not hier.hierarchy.children(value)
        )[0]
        claims = ClaimSet(hier.claims)
        for one in flat.claims:
            claims.add(
                Claim(
                    (f"flat/{one.item[0]}", one.item[1]), one.value,
                    one.lexical, one.source_id, one.extractor_id,
                    one.confidence,
                )
            )
        for source, value in enumerate([root, root, "nowhere", leaf]):
            claims.add(claim(("mixed", "place"), value, f"source{source:02d}"))
        for source, value in enumerate([root.upper(), "Elsewhere"]):
            claims.add(claim(("root", "place"), value, f"source{source:02d}"))
        return hier.hierarchy, claims

    @pytest.mark.parametrize(
        "base", [Accu, MultiTruth, lambda: MultiTruth(use_confidence=True)],
        ids=["accu", "multitruth", "multitruth-conf"],
    )
    def test_same_result_as_walking_every_item(self, base):
        hierarchy, claims = self._mixed_world()
        view = CasefoldHierarchy(hierarchy)
        on_a_chain = [
            any(value in view for value in claims.values_of(item))
            for item in claims.items()
        ]
        assert any(on_a_chain) and not all(on_a_chain)
        assert_same_result(
            HierarchicalFusion(base(), hierarchy).fuse(claims),
            HierarchicalFusionEveryItem(base(), hierarchy).fuse(claims),
        )

    def test_root_only_value_is_a_node(self, locations):
        view = CasefoldHierarchy(locations)
        assert "china" in view and "australia" in view
        assert "wuhan" in view and "hubei" in view
