"""Unit tests for the compiled fusion engine.

The contract of :mod:`repro.fusion.compiled` is exact equivalence: the
flat-array kernels replay the float operation order of the dict-loop
implementations (``tests/oracles/fusion_loops.py``), so truths,
iteration counts, beliefs, source qualities and canonical bytes must
be equal — ``==``, no tolerance.
"""

import copy
from dataclasses import fields

import pytest

from repro.fusion.accu import Accu
from repro.fusion.base import Claim, ClaimSet, value_key
from repro.fusion.compiled import (
    accu_fuse,
    compile_evidence,
    compile_votes,
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


def evidence(compiled, pair):
    """The ``(source, cover confidence)`` slots of a pair's class."""
    cls = compiled.pair_class[pair]
    return [
        (source, conf)
        for c, source, conf in zip(
            compiled.evidence_class, compiled.evidence_source,
            compiled.evidence_conf,
        )
        if c == cls
    ]


def expected_slots(claims, compiled):
    """``(pair, source, cover confidence)`` per cover slot, from the
    claim set: pairs in order, sources in ``sources_claiming`` order, a
    claimer's largest confidence (floored at 0.0) or ``None``."""
    slots = []
    for pair in range(compiled.n_pairs):
        item, value = compiled.pair_key(pair)
        for name in claims.sources_claiming(item):
            confidences = [
                c.confidence for c in claims.values_of(item)[value]
                if c.source_id == name
            ]
            slots.append((
                pair,
                compiled.sources.index(name),
                max([0.0, *confidences]) if confidences else None,
            ))
    return slots


def classes(compiled, pairs):
    return [compiled.pair_class[pair] for pair, _conf in pairs]


class TestCompileClaims:
    def test_interning_and_shapes(self):
        claims = small_claims()
        compiled = compile_votes(claims)
        assert compiled.n_claims == len(claims) == 5
        assert compiled.n_items == 2
        assert compiled.n_pairs == 4
        assert set(compiled.sources) == {"a", "b", "c"}
        assert compiled.items == list(claims.items())

    def test_pairs_follow_values_of_order(self):
        claims = small_claims()
        expected = [
            (item, value)
            for item in claims.items()
            for value in claims.values_of(item)
        ]
        for compiled in (compile_votes(claims), compile_evidence(claims)):
            assert [
                compiled.pair_key(p) for p in range(compiled.n_pairs)
            ] == expected

    def test_pair_claims_csr(self):
        claims = small_claims()
        compiled = compile_votes(claims)
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
        """Every pair's evidence has one slot per source claiming any
        value of its item."""
        claims = small_claims()
        compiled = compile_evidence(claims)
        for pair in range(compiled.n_pairs):
            item, _value = compiled.pair_key(pair)
            names = [
                compiled.sources[s] for s, _conf in evidence(compiled, pair)
            ]
            assert len(names) == len(set(names))
            assert names == claims.sources_claiming(item)

    def test_pair_claimers_keep_max_confidence(self):
        """A source claiming one pair twice holds the larger confidence
        in the pair's evidence."""
        claims = small_claims()
        claims.add(claim(("s1", "p"), "v1", "b", "other", confidence=0.75))
        compiled = compile_evidence(claims)
        pair = [
            p for p in range(compiled.n_pairs)
            if compiled.pair_key(p) == (("s1", "p"), "v1")
        ][0]
        by_name = {
            compiled.sources[s]: conf for s, conf in evidence(compiled, pair)
        }
        assert by_name == {"a": 0.9, "b": 0.75, "c": None}

    def test_cover_slots_follow_item_pair_source_order(self):
        claims = small_claims()
        compiled = compile_evidence(claims)
        slots = expected_slots(claims, compiled)
        assert [
            (pair, source, conf)
            for pair in range(compiled.n_pairs)
            for source, conf in evidence(compiled, pair)
        ] == slots
        # Each source's class lists follow the slots, split by kind.
        for source in range(compiled.n_sources):
            mine = [
                (pair, conf) for pair, s, conf in slots if s == source
            ]
            contested = [
                (pair, conf) for pair, conf in mine
                if len(compiled.item_pairs(compiled.pair_item[pair])) > 1
            ]
            assert compiled.cover_classes[source] == classes(compiled, mine)
            assert compiled.claimed_classes[source] == classes(
                compiled, [(p, c) for p, c in mine if c is not None]
            )
            assert compiled.silent_classes[source] == classes(
                compiled, [(p, c) for p, c in mine if c is None]
            )
            assert compiled.contested_classes[source] == classes(
                compiled, contested
            )
        # Who claims what, read back from the slots.
        assert {
            (compiled.pair_key(p), compiled.sources[s])
            for p, s, conf in slots if conf is not None
        } == {
            ((c.item, c.value), c.source_id) for c in claims
        }

    def test_decode_beliefs_roundtrip(self):
        compiled = compile_votes(small_claims())
        scores = [float(p) for p in range(compiled.n_pairs)]
        decoded = compiled.decode_beliefs(scores)
        assert decoded[compiled.pair_key(2)] == 2.0
        assert len(decoded) == compiled.n_pairs


# Sparse coverage: items with one claimer, with several claimers of one
# value, and contested ones; every confidence is 1.0 (uninformative).
EVIDENCE_WORLD = ClaimWorldConfig(
    seed=9, n_items=200, n_sources=12, coverage=0.12
)


class TestEvidenceClasses:
    """Multi-truth computes a round once per evidence class; pairs of
    equal evidence must share one, and only those."""

    @pytest.fixture(scope="class")
    def world(self):
        claims = generate_claim_world(EVIDENCE_WORLD).claims
        compiled = compile_evidence(claims)
        slots: dict[int, list] = {}
        for pair, source, conf in expected_slots(claims, compiled):
            slots.setdefault(pair, []).append((source, conf))
        return compiled, slots

    @staticmethod
    def one_value(compiled, pair):
        return len(compiled.item_pairs(compiled.pair_item[pair])) == 1

    def test_every_pair_has_a_class(self, world):
        compiled, _slots = world
        assert len(compiled.pair_class) == compiled.n_pairs
        assert set(compiled.pair_class) == set(range(compiled.n_classes))
        assert compiled.evidence_class == sorted(compiled.evidence_class)
        assert compiled.n_classes < compiled.n_pairs

    def test_a_class_holds_pairs_of_equal_evidence(self, world):
        compiled, slots = world
        members: dict[int, set] = {}
        for pair in range(compiled.n_pairs):
            assert evidence(compiled, pair) == slots[pair]
            members.setdefault(compiled.pair_class[pair], set()).add(
                tuple(slots[pair])
            )
        assert all(len(evidences) == 1 for evidences in members.values())
        # One-value pairs of equal evidence share their class.
        shared: dict[tuple, set] = {}
        for pair in range(compiled.n_pairs):
            if self.one_value(compiled, pair):
                shared.setdefault(tuple(slots[pair]), set()).add(
                    compiled.pair_class[pair]
                )
        assert all(len(classes) == 1 for classes in shared.values())

    def test_single_claimer_classes_are_few(self, world):
        compiled, slots = world
        kinds = {"one claimer": [], "several claimers": [], "contested": []}
        for pair in range(compiled.n_pairs):
            if not self.one_value(compiled, pair):
                kinds["contested"].append(pair)
            elif len(slots[pair]) == 1:
                kinds["one claimer"].append(pair)
            else:
                kinds["several claimers"].append(pair)
        assert all(kinds.values()), {k: len(v) for k, v in kinds.items()}
        single = kinds["one claimer"]
        sources = {slots[pair][0][0] for pair in single}
        confidences = {slots[pair][0][1] for pair in single}
        assert confidences == {1.0}
        assert len({compiled.pair_class[pair] for pair in single}) <= (
            len(sources) * len(confidences)
        ) < len(single)
        # A contested pair's class is its own.
        contested = [compiled.pair_class[pair] for pair in kinds["contested"]]
        assert len(set(contested)) == len(contested)
        assert not set(contested) & set(compiled.pair_class[p] for p in single)


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


# kernel → (the kernel, the compile that builds the tables it reads)
KERNELS = {
    "accu": (accu_fuse, compile_votes),
    "popaccu": (
        lambda cc: accu_fuse(cc, popularity=True, name="popaccu"),
        compile_votes,
    ),
    "multitruth": (multitruth_fuse, compile_evidence),
    "gensums": (gensums_fuse, compile_votes),
    "investment": (investment_fuse, compile_votes),
}


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_kernels_do_not_write_into_the_tables(kernel_name):
    """One compile serves any number of fuses: the second over used
    tables equals one over a fresh compile, and every table — of
    ``VoteTables`` for the vote kernels, of ``EvidenceTables``, the
    evidence classes and per-source class lists included, for
    multi-truth — reads as it did before the first."""
    claims = generate_claim_world(WORLDS["multi-truth"]).claims
    kernel, compile_ = KERNELS[kernel_name]
    compiled = compile_(claims)
    tables = {
        table.name: copy.deepcopy(getattr(compiled, table.name))
        for table in fields(compiled)
    }
    first = kernel(compiled).canonical_bytes()
    assert kernel(compiled).canonical_bytes() == first
    assert kernel(compile_(claims)).canonical_bytes() == first
    for name, before in tables.items():
        assert getattr(compiled, name) == before, name


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
