"""Unit tests for the fusion claim model."""

import pytest

from repro.errors import FusionError
from repro.fusion.base import (
    Claim,
    ClaimSet,
    FusionResult,
    normalize_beliefs,
    value_key,
)
from repro.fusion.vote import Vote
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value


def claim(item, value, source, extractor="ex", confidence=1.0):
    return Claim(item, value_key(value), value, source, extractor, confidence)


class TestValueKey:
    def test_casefolds(self):
        assert value_key("Paris") == value_key("PARIS")

    def test_collapses_whitespace(self):
        assert value_key("  New   York ") == "new york"


class TestClaimSet:
    def test_deduplicates_identical_claims(self):
        claims = ClaimSet(
            [
                claim(("s", "p"), "v", "a"),
                claim(("s", "p"), "v", "a"),
            ]
        )
        assert len(claims) == 1

    def test_dedup_keeps_max_confidence(self):
        claims = ClaimSet(
            [
                claim(("s", "p"), "v", "a", confidence=0.2),
                claim(("s", "p"), "v", "a", confidence=0.9),
                claim(("s", "p"), "v", "a", confidence=0.5),
            ]
        )
        assert next(iter(claims)).confidence == 0.9

    def test_same_value_different_sources_kept(self):
        claims = ClaimSet(
            [claim(("s", "p"), "v", "a"), claim(("s", "p"), "v", "b")]
        )
        assert len(claims) == 2
        assert claims.sources() == {"a", "b"}

    def test_values_of(self):
        claims = ClaimSet(
            [
                claim(("s", "p"), "v1", "a"),
                claim(("s", "p"), "v2", "b"),
                claim(("s", "q"), "v1", "a"),
            ]
        )
        values = claims.values_of(("s", "p"))
        assert set(values) == {"v1", "v2"}

    def test_sources_claiming(self):
        claims = ClaimSet(
            [claim(("s", "p"), "v1", "a"), claim(("s", "p"), "v2", "b")]
        )
        assert claims.sources_claiming(("s", "p")) == {"a", "b"}
        assert claims.sources_claiming(("x", "y")) == set()

    def test_reindex_after_mutation(self):
        claims = ClaimSet([claim(("s", "p"), "v1", "a")])
        assert claims.items() == [("s", "p")]
        claims.add(claim(("s", "q"), "v1", "a"))
        assert set(claims.items()) == {("s", "p"), ("s", "q")}

    def test_add_after_read_marks_index_stale(self):
        claims = ClaimSet([claim(("s", "p"), "v1", "a")])
        # Force an index build, then mutate: every read API must see
        # the new claim, not the cached index.
        assert claims.values_of(("s", "p")).keys() == {"v1"}
        claims.add(claim(("s", "p"), "v2", "b"))
        assert claims._stale
        assert claims.values_of(("s", "p")).keys() == {"v1", "v2"}
        assert claims.sources_claiming(("s", "p")) == {"a", "b"}
        claims.add(claim(("t", "p"), "v1", "a"))
        assert claims.items() == [("s", "p"), ("t", "p")]

    def test_stats(self):
        claims = ClaimSet(
            [
                claim(("s", "p"), "v1", "a"),
                claim(("s", "p"), "v2", "b", extractor="other"),
                claim(("t", "p"), "v1", "a"),
            ]
        )
        stats = claims.stats()
        assert stats.n_items == 2
        assert stats.n_values == 3
        assert stats.n_sources == 2
        assert stats.n_extractors == 2
        assert stats.n_claims == 3

    def test_stats_track_mutation(self):
        claims = ClaimSet([claim(("s", "p"), "v1", "a")])
        assert claims.stats().n_items == 1
        claims.add(claim(("t", "p"), "v1", "a"))
        assert claims.stats().n_items == 2

    def test_from_scored_triples(self):
        scored = ScoredTriple(
            Triple("s", "p", Value("PARIS")),
            Provenance("src", "dom"),
            0.7,
        )
        claims = ClaimSet.from_scored_triples([scored])
        only = next(iter(claims))
        assert only.value == "paris"
        assert only.lexical == "PARIS"
        assert only.extractor_id == "dom"
        assert only.confidence == 0.7


class TestFusionResult:
    def test_is_true_and_belief(self):
        result = FusionResult("m")
        result.truths[("s", "p")] = {"v"}
        result.belief[(("s", "p"), "v")] = 0.9
        assert result.is_true(("s", "p"), "v")
        assert not result.is_true(("s", "p"), "w")
        assert result.belief_of(("s", "p"), "v") == 0.9
        assert result.belief_of(("s", "p"), "w") == 0.0


class TestTruthSetsAreFrozen:
    """Results share their truth sets (a hierarchy wrapper with its
    base method's, a merged result with the cached components'), so
    every producer in ``src/`` hands out ``frozenset`` values: a
    holder can rebind an item, never change a set."""

    @staticmethod
    def _producers():
        from repro.evalx.metrics import remap_subjects
        from repro.faults import RetryPolicy
        from repro.fusion import (
            Accu,
            GeneralizedSums,
            HierarchicalFusion,
            Investment,
            KnowledgeFusion,
            MultiTruth,
            PopAccu,
        )
        from repro.mapreduce.jobs import mr_accu, mr_vote
        from repro.synth.claims import ClaimWorldConfig, generate_claim_world

        world = generate_claim_world(
            ClaimWorldConfig(
                seed=5, n_items=12, n_sources=5, truths_per_item=2,
                hierarchical=True,
            )
        )
        functional = dict(
            hierarchy=world.hierarchy, functional_of=lambda predicate: True
        )
        methods = {
            "Vote": Vote(),
            "Accu": Accu(),
            "PopAccu": PopAccu(),
            "MultiTruth": MultiTruth(),
            "GeneralizedSums": GeneralizedSums(),
            "Investment": Investment(),
            "HierarchicalFusion": HierarchicalFusion(
                MultiTruth(), world.hierarchy
            ),
            "KnowledgeFusion": KnowledgeFusion(**functional),
        }
        producers = {
            name: method.fuse for name, method in methods.items()
        }
        producers.update({
            "KnowledgeFusion, no hierarchy": KnowledgeFusion(
                functional_of=lambda predicate: True
            ).fuse,
            "KnowledgeFusion, sharded": KnowledgeFusion(
                retry=RetryPolicy(), **functional
            ).fuse,
            "mr_vote": mr_vote,
            "mr_accu": mr_accu,
            # Every subject folded onto one: truth sets are united.
            "remap_subjects": lambda claims: remap_subjects(
                MultiTruth().fuse(claims),
                {subject: "one" for subject, _predicate in claims.items()},
            ),
        })
        return world.claims, methods, producers

    def test_every_fusion_method_in_src_is_on_the_roster(self):
        import repro.fusion  # noqa: F401  (defines every method)
        from repro.fusion.base import FusionMethod

        def concrete(cls):
            for sub in cls.__subclasses__():
                if sub.__module__.startswith("repro."):
                    yield sub.__name__
                    yield from concrete(sub)

        _claims, methods, _producers = self._producers()
        assert sorted(concrete(FusionMethod)) == sorted(methods)

    def test_every_producer_returns_frozen_truth_sets(self):
        claims, _methods, producers = self._producers()
        for name, produce in producers.items():
            result = produce(claims)
            assert result.truths, name
            assert {type(values) for values in result.truths.values()} == {
                frozenset
            }, name


class TestGuards:
    def test_empty_claims_rejected(self):
        with pytest.raises(FusionError):
            Vote().fuse(ClaimSet())


class TestNormalizeBeliefs:
    def test_scales_to_unit_max(self):
        assert normalize_beliefs({"a": 2.0, "b": 1.0}) == {"a": 1.0, "b": 0.5}

    def test_empty(self):
        assert normalize_beliefs({}) == {}

    def test_all_zero(self):
        assert normalize_beliefs({"a": 0.0}) == {"a": 0.0}
