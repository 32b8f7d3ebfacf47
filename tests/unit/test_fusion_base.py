"""Unit tests for the fusion claim model."""

import random

import pytest

from repro.errors import FusionError
from repro.fusion.base import (
    Claim,
    ClaimSet,
    FusionResult,
    claim_key,
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
        assert claims.sources_claiming(("s", "p")) == ["a", "b"]
        assert claims.sources_claiming(("x", "y")) == []

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
        assert claims._slot_of is None  # the grouping tables are stale
        assert claims.values_of(("s", "p")).keys() == {"v1", "v2"}
        assert claims.sources_claiming(("s", "p")) == ["a", "b"]
        claims.add(claim(("t", "p"), "v1", "a"))
        assert claims.items() == [("s", "p"), ("t", "p")]

    def test_iterates_in_claim_key_order_whatever_the_input_order(self):
        pool = [
            claim(("t", "p"), "v1", "a"),
            claim(("s", "p"), "v2", "a"),
            claim(("s", "p"), "v1", "b"),
            claim(("s", "p"), "v1", "a", extractor="dom"),
            claim(("s", "p"), "v1", "a"),
        ]
        canonical = sorted(pool, key=claim_key)
        for order in (pool, pool[::-1], canonical):
            claims = ClaimSet(order)
            assert list(claims) == canonical
            assert claims.items() == [("s", "p"), ("t", "p")]
            assert claims.sources_claiming(("s", "p")) == ["a", "b"]
            items, spanned, starts = claims.spans()
            assert items == claims.items() and spanned == canonical
            assert starts == [0, 4, 5]

    def test_adopt_takes_the_list_as_it_stands(self):
        held = [claim(("t", "p"), "v", "a"), claim(("s", "p"), "v", "a")]
        adopted = ClaimSet.adopt(held)
        assert list(adopted) == held
        assert adopted.items() == [("t", "p"), ("s", "p")]
        adopted.add(claim(("r", "p"), "v", "a"))  # now sorted, a copy
        assert adopted.items() == [("r", "p"), ("s", "p"), ("t", "p")]
        assert [one.item for one in held] == [("t", "p"), ("s", "p")]

    def test_adopt_refuses_an_item_whose_claims_lie_apart(self):
        adopted = ClaimSet.adopt(
            [
                claim(("s", "p"), "v", "a"),
                claim(("t", "p"), "v", "a"),
                claim(("s", "p"), "w", "a"),
            ]
        )
        with pytest.raises(FusionError, match="lie apart"):
            adopted.items()

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

    def test_from_scored_triples_keeps_the_claim_add_keeps(self):
        """One sorted pass dedups as ``add`` does: per claim key the
        highest confidence, on a tie the first surface in sort order —
        ``-0.0`` and ``0.0`` tie, so the lower surface keeps its own
        zero."""
        rng = random.Random(5)
        surfaces = ["Paris", "PARIS", "paris ", "Lyon", "LYON"]
        scored = [
            ScoredTriple(
                Triple(f"s{rng.randrange(3)}", "p", Value(rng.choice(surfaces))),
                Provenance(f"src{rng.randrange(3)}", rng.choice(["dom", "kb"])),
                rng.choice([-0.0, 0.0, 0.25, 0.5, 0.5, 1.0]),
            )
            for _ in range(400)
        ]
        expected = ClaimSet()
        for one in sorted(
            scored,
            key=lambda one: (
                one.triple.subject, one.triple.predicate,
                value_key(one.triple.obj.lexical), one.provenance.source_id,
                one.provenance.extractor_id, one.confidence,
                one.triple.obj.lexical,
            ),
        ):
            expected.add(
                Claim(
                    one.triple.item, value_key(one.triple.obj.lexical),
                    one.triple.obj.lexical, one.provenance.source_id,
                    one.provenance.extractor_id, one.confidence,
                )
            )
        expected = [(*claim_key(c), c.lexical, repr(c.confidence)) for c in expected]
        assert len(expected) < 100  # duplicate keys, many
        for _ in range(5):
            rng.shuffle(scored)
            built = ClaimSet.from_scored_triples(scored)
            assert [
                (*claim_key(c), c.lexical, repr(c.confidence)) for c in built
            ] == expected


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
        from repro.fusion import (
            Accu,
            GeneralizedSums,
            HierarchicalFusion,
            Investment,
            KnowledgeFusion,
            MultiTruth,
            PopAccu,
        )
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
