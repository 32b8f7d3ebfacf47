"""Property tests: the claim passes equal their re-hashing oracles.

``compile_claims``, ``HierarchicalFusion._expand``, ``shard_claims``
and ``KnowledgeFusion._apply_extractor_weights`` inherit the item runs
of the claim set they are handed; ``tests.oracles.claim_passes`` has
the bodies that built a ``ClaimSet`` through ``add`` at every stage.
Both must return the same thing *in order* — every ``CompiledClaims``
table, ``list()`` / ``items()`` / ``values_of`` of every set — whether
the input was built by ``add`` with its items interleaved or adopted
as a canonical list.

On top of a generated claim world every case carries the corners the
passes branch on: a refresh duplicate (same key, higher confidence
later), one ``(source, extractor)`` claiming two specific values under
one ancestor (the virtual claims collide), a root-only hierarchy
value, a one-item component, confidences of 0.0, -0.0 and below zero.
"""

import random
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion.base import Claim, ClaimSet
from repro.fusion.compiled import compile_claims
from repro.fusion.hierarchy import HierarchicalFusion
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.fusion.multitruth import MultiTruth
from repro.fusion.sharding import shard_claims
from repro.rdf.hierarchy import ValueHierarchy
from repro.synth.claims import generate_claim_world
from tests.oracles import claim_passes as oracle
from tests.property.test_prop_claims import configs

EXTRACTORS = ("dom", "text", "kb")
WEIGHTS = st.fixed_dictionaries(
    {
        "dom": st.sampled_from([1.0, 0.5, 0.0]),
        "text": st.sampled_from([1.0, 1 / 3, 2.0, -1.0]),
    }
)  # "kb" is left to the default weight


def _corner_claims(hierarchy: ValueHierarchy) -> list[Claim]:
    """The claims every case gets, whatever the world drew."""
    hierarchy.add_chain(["wuhan", "hubei", "china"])
    hierarchy.add_chain(["shenzhen", "guangdong", "china"])
    born = ("susie fang", "birth place")
    return [
        # Two specific values of one (source, extractor) whose chains
        # meet: "china" is claimed virtually twice, the second time
        # with the higher confidence ...
        Claim(born, "wuhan", "Wuhan", "source00", "dom", 0.5),
        Claim(born, "shenzhen", "Shenzhen", "source00", "dom", 0.75),
        # ... and outright, by a source of its own.
        Claim(born, "china", "China", "source01", "text", 0.25),
        # A root-only value on an item nobody else claims, from a
        # source that claims nothing else: a one-item component.
        Claim(("lone", "located in"), "china", "China", "hermit", "kb", 0.5),
        # One-claim items with confidences the clamp has to catch.
        Claim(("zero", "attr"), "nothing", "nothing", "source00", "kb", 0.0),
        Claim(("minus zero", "attr"), "nothing", "n", "source01", "kb", -0.0),
        Claim(("below", "attr"), "nothing", "n", "source00", "text", -0.25),
    ]


@st.composite
def cases(draw):
    """``(claims, hierarchy)`` with the claims in a drawn order."""
    world = generate_claim_world(draw(configs))
    rng = random.Random(draw(st.integers(0, 10**6)))
    hierarchy = world.hierarchy or ValueHierarchy()
    pool = [
        Claim(
            claim.item, claim.value, claim.lexical, claim.source_id,
            rng.choice(EXTRACTORS),
            rng.choice([1.0, 0.0, rng.random()]),
        )
        for claim in world.claims
    ]
    # Refresh duplicates: a key's later claim, at a higher confidence
    # (kept, in the first one's place) or a lower one (dropped).
    for claim in rng.sample(pool, min(5, len(pool))):
        pool.append(
            Claim(
                claim.item, claim.value, claim.lexical.upper(),
                claim.source_id, claim.extractor_id,
                claim.confidence + rng.choice([0.125, -0.125]),
            )
        )
    pool += _corner_claims(hierarchy)
    order = draw(st.sampled_from(["as built", "shuffled", "canonical"]))
    if order == "shuffled":
        rng.shuffle(pool)
    built = ClaimSet(pool)
    if order == "canonical":
        # What the incremental engine hands over: deduplicated,
        # item-contiguous, adopted without hashing a key.
        built = ClaimSet.adopt(
            sorted(
                built,
                key=lambda claim: (
                    claim.item, claim.lexical, claim.source_id,
                    claim.extractor_id,
                ),
            )
        )
    return built, hierarchy


def _exact(claims) -> list[str]:
    """Claims (or table cells) with signed zeros told apart."""
    return [repr(claim) for claim in claims]


def _assert_same_set(ours: ClaimSet, theirs: ClaimSet) -> None:
    assert _exact(ours) == _exact(theirs)
    assert len(ours) == len(theirs)
    assert ours.items() == theirs.items()
    for item in theirs.items():
        mine, reference = ours.values_of(item), theirs.values_of(item)
        assert list(mine) == list(reference)
        for value in reference:
            assert _exact(mine[value]) == _exact(reference[value])
        assert list(ours.sources_claiming(item)) == list(
            theirs.sources_claiming(item)
        )
    assert [(item, _exact(run)) for item, run in ours.runs()] == [
        (item, _exact(run)) for item, run in theirs.runs()
    ]
    assert list(ours.sources()) == list(theirs.sources())


def _assert_same_tables(claims: ClaimSet, reference: ClaimSet) -> None:
    ours = compile_claims(claims)
    theirs = oracle.compile_claims(reference)
    for table in fields(theirs):
        assert _exact(getattr(ours, table.name)) == _exact(
            getattr(theirs, table.name)
        ), table.name


class TestPassesEqualTheirOracles:
    @given(cases())
    @settings(max_examples=60, deadline=None)
    def test_compile_claims(self, case):
        claims, _hierarchy = case
        _assert_same_tables(claims, claims)

    @given(cases())
    @settings(max_examples=60, deadline=None)
    def test_expand_then_compile(self, case):
        claims, hierarchy = case
        base = MultiTruth()
        ours = HierarchicalFusion(base, hierarchy)._expand(claims)
        theirs = oracle.HierarchicalFusionAddingEveryClaim(
            base, hierarchy
        )._expand(claims)
        _assert_same_set(ours, theirs)
        born = ("susie fang", "birth place")
        assert {
            claim.source_id: claim.confidence
            for claim in ours.values_of(born)["china"]
        } == {"source00": 0.75 * 0.9 * 0.9, "source01": 0.25}
        _assert_same_tables(ours, theirs)

    @given(cases())
    @settings(max_examples=60, deadline=None)
    def test_shard_claims(self, case):
        claims, _hierarchy = case
        ours = shard_claims(claims)
        theirs = oracle.shard_claims(claims)
        assert len(ours) == len(theirs) >= 2  # the hermit's, and the rest
        for mine, reference in zip(ours, theirs):
            _assert_same_set(mine, reference)
            _assert_same_tables(mine, reference)
        assert [("lone", "located in")] in [shard.items() for shard in ours]
        # One component is its own shard.
        for mine, reference in zip(ours, theirs):
            (again,) = shard_claims(mine)
            assert again is mine
            _assert_same_set(again, *oracle.shard_claims(reference))

    @given(cases(), WEIGHTS, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_apply_extractor_weights(self, case, weights, use_confidence):
        claims, _hierarchy = case
        ours = KnowledgeFusion(
            use_confidence=use_confidence
        )._apply_extractor_weights(claims, weights)
        theirs = oracle.KnowledgeFusionAddingEveryClaim(
            use_confidence=use_confidence
        )._apply_extractor_weights(claims, weights)
        _assert_same_set(ours, theirs)
        # An undiscounted claim stands for itself in both.
        assert [
            mine is claim for mine, claim in zip(ours, claims)
        ] == [theirs_ is claim for theirs_, claim in zip(theirs, claims)]
        for mine, reference in zip(shard_claims(ours), oracle.shard_claims(theirs)):
            _assert_same_set(mine, reference)

    @given(cases())
    @settings(max_examples=30, deadline=None)
    def test_add_to_an_adopted_set_copies_the_list_first(self, case):
        claims, _hierarchy = case
        held = list(claims)
        adopted = ClaimSet.adopt(held)
        grouped = adopted.items()
        extra = Claim(("late", "attr"), "v", "v", "source00", "dom", 0.5)
        adopted.add(extra)
        adopted.add(held[0])  # a duplicate: dropped
        assert held == list(claims)
        assert list(adopted) == [*held, extra]
        assert adopted.items() == [*grouped, ("late", "attr")]
