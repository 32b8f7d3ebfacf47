"""Unit tests for the compiled fusion engine.

The contract of :mod:`repro.fusion.compiled` is exact equivalence: the
flat-array kernels replay the float operation order of the dict-loop
implementations (``tests/oracles/fusion_loops.py``), so truths,
iteration counts, beliefs, source qualities and canonical bytes must
be equal — ``==``, no tolerance.
"""

import pytest

from repro.fusion.accu import Accu
from repro.fusion.base import Claim, ClaimSet, value_key
from repro.fusion.compiled import (
    accu_fuse,
    compile_claims,
    gensums_fuse,
    investment_fuse,
    multitruth_fuse,
)
from repro.fusion.multitruth import MultiTruth
from repro.synth.claims import ClaimWorldConfig, generate_claim_world
from tests.oracles.fusion_loops import (
    PAIRS,
    AccuLoops,
    MultiTruthLoops,
    assert_same_result,
)


def claim(item, value, source, extractor="ex", confidence=1.0):
    return Claim(item, value_key(value), value, source, extractor, confidence)


def small_claims():
    return ClaimSet(
        [
            claim(("s1", "p"), "v1", "a", confidence=0.9),
            claim(("s1", "p"), "v1", "b", confidence=0.6),
            claim(("s1", "p"), "v2", "c", confidence=0.8),
            claim(("s2", "p"), "v1", "a", confidence=0.7),
            claim(("s2", "p"), "v3", "b", "other", confidence=0.5),
        ]
    )


class TestCompileClaims:
    def test_interning_and_shapes(self):
        claims = small_claims()
        compiled = compile_claims(claims)
        assert compiled.n_claims == len(claims) == 5
        assert compiled.n_items == 2
        assert compiled.n_pairs == 4
        assert set(compiled.sources) == {"a", "b", "c"}
        assert compiled.items == list(claims.items())

    def test_pairs_follow_values_of_order(self):
        claims = small_claims()
        compiled = compile_claims(claims)
        expected = [
            (item, value)
            for item in claims.items()
            for value in claims.values_of(item)
        ]
        assert [
            compiled.pair_key(p) for p in range(compiled.n_pairs)
        ] == expected

    def test_pair_claims_csr(self):
        claims = small_claims()
        compiled = compile_claims(claims)
        for pair in range(compiled.n_pairs):
            item, value = compiled.pair_key(pair)
            start = compiled.pair_claim_start[pair]
            stop = compiled.pair_claim_start[pair + 1]
            got = list(zip(
                (compiled.sources[s]
                 for s in compiled.pair_claim_source[start:stop]),
                compiled.pair_claim_conf[start:stop],
            ))
            assert got == [
                (c.source_id, c.confidence)
                for c in claims.values_of(item)[value]
            ]

    def test_item_sources_cover_claimants(self):
        """Every pair of an item has one cover slot per source claiming
        any value of that item."""
        claims = small_claims()
        compiled = compile_claims(claims)
        for pair in range(compiled.n_pairs):
            item, _value = compiled.pair_key(pair)
            names = [
                compiled.sources[s]
                for p, s in zip(compiled.cover_pair, compiled.cover_source)
                if p == pair
            ]
            assert len(names) == len(set(names))
            assert set(names) == claims.sources_claiming(item)

    def test_pair_claimers_keep_max_confidence(self):
        """The cover slots that replaced ``pair_claimers``: a source
        claiming one pair twice holds the larger confidence."""
        claims = small_claims()
        claims.add(claim(("s1", "p"), "v1", "b", "other", confidence=0.75))
        compiled = compile_claims(claims)
        pair = [
            p for p in range(compiled.n_pairs)
            if compiled.pair_key(p) == (("s1", "p"), "v1")
        ][0]
        by_name = {
            compiled.sources[s]: conf
            for p, s, conf in zip(
                compiled.cover_pair, compiled.cover_source,
                compiled.cover_conf,
            )
            if p == pair
        }
        assert by_name == {"a": 0.9, "b": 0.75, "c": None}

    def test_cover_slots_follow_item_pair_source_order(self):
        claims = small_claims()
        compiled = compile_claims(claims)
        expected = [
            (pair, source)
            for item in range(compiled.n_items)
            for pair in compiled.item_pairs(item)
            for source in (
                compiled.sources.index(name)
                for name in claims.sources_claiming(compiled.items[item])
            )
        ]
        slots = list(zip(compiled.cover_pair, compiled.cover_source))
        assert slots == expected
        claimed = [
            slot for slot, conf in zip(slots, compiled.cover_conf)
            if conf is not None
        ]
        silent = [
            slot for slot, conf in zip(slots, compiled.cover_conf)
            if conf is None
        ]
        assert claimed == list(
            zip(compiled.claimed_pair, compiled.claimed_source)
        )
        assert silent == list(
            zip(compiled.silent_pair, compiled.silent_source)
        )
        # Who claims what, read back from the slots.
        assert {
            (compiled.pair_key(p), compiled.sources[s]) for p, s in claimed
        } == {
            ((c.item, c.value), c.source_id) for c in claims
        }

    def test_decode_beliefs_roundtrip(self):
        compiled = compile_claims(small_claims())
        scores = [float(p) for p in range(compiled.n_pairs)]
        decoded = compiled.decode_beliefs(scores)
        assert decoded[compiled.pair_key(2)] == 2.0
        assert len(decoded) == compiled.n_pairs


WORLDS = {
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
}

# variant → (key into PAIRS, constructor arguments)
METHODS = {
    "accu": ("accu", {}),
    "accu-tol0": ("accu", {"tolerance": 0.0}),
    "popaccu": ("popaccu", {}),
    "multitruth": ("multitruth", {}),
    "multitruth-conf": ("multitruth", {"use_confidence": True}),
    "gensums": ("gensums", {}),
    "investment": ("investment", {}),
}


class TestCompiledEquivalence:
    @pytest.mark.parametrize("world_name", sorted(WORLDS))
    @pytest.mark.parametrize("method_name", sorted(METHODS))
    def test_matches_legacy(self, world_name, method_name):
        claims = generate_claim_world(WORLDS[world_name]).claims
        pair, kwargs = METHODS[method_name]
        method_cls, oracle_cls = PAIRS[pair]
        assert_same_result(
            method_cls(**kwargs).fuse(claims),
            oracle_cls(**kwargs).fuse(claims),
        )

    def test_source_weights_respected(self):
        claims = generate_claim_world(WORLDS["copiers"]).claims
        weights = {
            source: 0.5 + 0.02 * i
            for i, source in enumerate(sorted(claims.sources()))
        }
        assert_same_result(
            MultiTruth(source_weights=weights).fuse(claims),
            MultiTruthLoops(source_weights=weights).fuse(claims),
        )

    def test_initial_accuracies_respected(self):
        claims = generate_claim_world(WORLDS["plain"]).claims
        initial = {
            source: 0.6 + 0.03 * i
            for i, source in enumerate(sorted(claims.sources()))
        }
        assert_same_result(
            Accu(initial_accuracies=initial).fuse(claims),
            AccuLoops(initial_accuracies=initial).fuse(claims),
        )


KERNELS = {
    "accu": accu_fuse,
    "popaccu": lambda cc: accu_fuse(cc, popularity=True, name="popaccu"),
    "multitruth": multitruth_fuse,
    "gensums": gensums_fuse,
    "investment": investment_fuse,
}


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_kernels_do_not_write_into_the_tables(kernel_name):
    """One ``CompiledClaims`` serves any number of fuses: the second
    over a used object equals one over a fresh compile."""
    claims = generate_claim_world(WORLDS["multi-truth"]).claims
    kernel = KERNELS[kernel_name]
    compiled = compile_claims(claims)
    first = kernel(compiled).canonical_bytes()
    assert kernel(compiled).canonical_bytes() == first
    assert kernel(compile_claims(claims)).canonical_bytes() == first


def mixed_claims():
    """Contested and single-value items, a source silent on some pairs
    of an item it covers, and a source claiming one pair twice (two
    extractors) at different confidences."""
    rows = [
        # contested, three values, five sources
        (("film", "cast"), "alice", "s1", "dom", 0.9),
        (("film", "cast"), "alice", "s1", "text", 0.4),
        (("film", "cast"), "alice", "s2", "dom", 0.7),
        (("film", "cast"), "bob", "s1", "dom", 0.8),
        (("film", "cast"), "bob", "s3", "dom", 0.6),
        (("film", "cast"), "bob", "s3", "text", 0.95),
        (("film", "cast"), "carol", "s4", "dom", 0.5),
        (("film", "cast"), "carol", "s5", "text", 1.0),
        # single value, one source / several sources
        (("film", "year"), "1999", "s2", "dom", 0.3),
        (("city", "country"), "france", "s1", "dom", 0.9),
        (("city", "country"), "france", "s4", "dom", 0.2),
        (("city", "country"), "france", "s5", "text", 0.6),
        # contested, two values, one source on both sides
        (("city", "mayor"), "anne", "s2", "dom", 0.85),
        (("city", "mayor"), "anne", "s3", "dom", 0.75),
        (("city", "mayor"), "bert", "s3", "text", 0.65),
        (("city", "mayor"), "bert", "s5", "dom", 0.0),
    ]
    return ClaimSet(
        claim(item, value, source, extractor, confidence)
        for item, value, source, extractor, confidence in rows
    )


SOURCE_WEIGHTS = {
    "uniform": None,
    "non-uniform": {"s1": 0.35, "s2": 1.0, "s3": 0.8, "s4": 0.0, "s5": 0.55},
}


class TestMultiTruthKernelMatrix:
    """Source weights × confidence × item shapes against the dict
    loops, ``==`` on everything a result carries."""

    @pytest.mark.parametrize("use_confidence", [False, True])
    @pytest.mark.parametrize("weights_name", sorted(SOURCE_WEIGHTS))
    @pytest.mark.parametrize(
        "rounds", [{}, {"tolerance": 0.0, "max_iterations": 8}],
        ids=["early-exit", "pinned-rounds"],
    )
    def test_mixed_items(self, use_confidence, weights_name, rounds):
        kwargs = dict(
            source_weights=SOURCE_WEIGHTS[weights_name],
            use_confidence=use_confidence, **rounds,
        )
        assert_same_result(
            MultiTruth(**kwargs).fuse(mixed_claims()),
            MultiTruthLoops(**kwargs).fuse(mixed_claims()),
        )

    @pytest.mark.parametrize("use_confidence", [False, True])
    @pytest.mark.parametrize("world_name", sorted(WORLDS))
    def test_seeded_worlds_with_weights(self, world_name, use_confidence):
        claims = generate_claim_world(WORLDS[world_name]).claims
        weights = {
            source: 0.2 + 0.11 * i
            for i, source in enumerate(sorted(claims.sources()))
        }
        kwargs = dict(source_weights=weights, use_confidence=use_confidence)
        assert_same_result(
            MultiTruth(**kwargs).fuse(claims),
            MultiTruthLoops(**kwargs).fuse(claims),
        )
