"""Metamorphic relations of fusion: a result is a function of the claim
*set* (Sec. 3.2 defines fusion over a set of claims).

- **R1** an order-preserving rename of sources, extractors and items
  leaves the result unchanged, once the names are mapped back;
- **R2** any permutation of the claim list leaves it unchanged;
- **R3** fusing a disjoint union (no source, extractor or item in
  common) gives each half the same result as fusing it alone.

Every relation is checked at bytes (:meth:`FusionResult.canonical_bytes`)
over the whole roster: VOTE, ACCU, POPACCU, multi-truth, GenSums,
Investment, the hierarchy wrapper, :class:`KnowledgeFusion` and the
incremental engine's prime.  A rename moves every string hash and a
permutation every insertion order, so a float sum that follows either
breaks R1 or R2 in its last bits.

The iterative methods run at ``tolerance=0``: a plain run over a union
exits on the largest change of either half, so an early exit couples
the halves (``KnowledgeFusion`` and the engine fuse each component on
its own and keep their default).  GenSums and Investment normalise
trust by its maximum over *all* sources, which couples the halves of
any union by design; their R3 is stated as the knowledge-fusion path
runs a method, component by component (:func:`fuse_sharded`).
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.fusion.accu import Accu, PopAccu
from repro.fusion.base import Claim, ClaimSet, FusionResult
from repro.fusion.confidence_weighted import GeneralizedSums, Investment
from repro.fusion.hierarchy import HierarchicalFusion
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.fusion.multitruth import MultiTruth
from repro.fusion.vote import Vote
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value
from repro.synth.claims import ClaimWorldConfig, generate_claim_world
from tests.conftest import fuse_by_component

EXTRACTORS = ("dom", "kb", "text")
FIXED_ROUNDS = {"max_iterations": 8, "tolerance": 0.0}


def _prime(claims: list[Claim], hierarchy) -> FusionResult:
    store = TripleStore()
    store.add_all(
        ScoredTriple(
            Triple(claim.item[0], claim.item[1], Value(claim.lexical)),
            Provenance(claim.source_id, claim.extractor_id),
            claim.confidence,
        )
        for claim in claims
    )
    return KnowledgeFusion(hierarchy=hierarchy).begin_incremental(
        store
    ).result


def _method(make):
    return lambda claims, hierarchy: make(hierarchy).fuse(ClaimSet(claims))


#: name → (fuse(claims, hierarchy), does a plain run keep halves apart?)
ROSTER = {
    "vote": (_method(lambda _h: Vote()), True),
    "accu": (_method(lambda _h: Accu(**FIXED_ROUNDS)), True),
    "popaccu": (_method(lambda _h: PopAccu(**FIXED_ROUNDS)), True),
    "multitruth": (
        _method(lambda _h: MultiTruth(use_confidence=True, **FIXED_ROUNDS)),
        True,
    ),
    "gensums": (_method(lambda _h: GeneralizedSums(**FIXED_ROUNDS)), False),
    "investment": (_method(lambda _h: Investment(**FIXED_ROUNDS)), False),
    "hierarchy": (
        _method(
            lambda hierarchy: HierarchicalFusion(
                MultiTruth(use_confidence=True, **FIXED_ROUNDS), hierarchy
            )
        ),
        True,
    ),
    "knowledge-fusion": (
        _method(lambda hierarchy: KnowledgeFusion(hierarchy=hierarchy)),
        True,
    ),
    "engine-prime": (_prime, True),
}


def _claims(seed: int, truths_per_item: int, prefix: str = "") -> tuple:
    """A hierarchical copier world's claims, dealt to three extractors
    (some claims by two) with varied confidences, plus refresh
    duplicates (same key, another surface, lower confidence); names
    carry ``prefix``.  Returns ``(claims, hierarchy)``."""
    world = generate_claim_world(
        ClaimWorldConfig(
            seed=seed, n_items=24, n_sources=7, copier_cliques=1,
            hierarchical=True, truths_per_item=truths_per_item,
        )
    )
    rng = random.Random(seed)
    pool = []
    for claim in world.claims:
        for extractor in rng.sample(EXTRACTORS, rng.choice([1, 1, 2])):
            pool.append(
                Claim(
                    (prefix + claim.item[0], prefix + claim.item[1]),
                    claim.value, claim.lexical, prefix + claim.source_id,
                    prefix + extractor,
                    rng.choice([1.0, 0.5, round(rng.random(), 3)]),
                )
            )
    for claim in rng.sample(pool, 6):
        pool.append(
            Claim(
                claim.item, claim.value, claim.lexical.upper(),
                claim.source_id, claim.extractor_id, claim.confidence / 2,
            )
        )
    return pool, world.hierarchy


WORLDS = {"one-truth": (3, 1), "two-truths": (8, 2)}


@pytest.fixture(scope="module", params=sorted(WORLDS))
def world(request):
    return _claims(*WORLDS[request.param])


def _ranked(names) -> dict[str, str]:
    """An order-preserving rename: the k-th smallest name → ``n{k}``
    (zero-padded, so the new names sort as the old ones did)."""
    return {name: f"n{rank:05d}" for rank, name in enumerate(sorted(names))}


def _mapped_back(result, items, sources) -> FusionResult:
    back = FusionResult(result.method)
    back.truths = {items[item]: truths for item, truths in result.truths.items()}
    back.belief = {
        (items[item], value): belief
        for (item, value), belief in result.belief.items()
    }
    back.source_quality = {
        sources[source]: quality
        for source, quality in result.source_quality.items()
    }
    back.iterations = result.iterations
    back.converged_at = result.converged_at
    return back


@pytest.mark.parametrize("name", sorted(ROSTER))
class TestMetamorphicRelations:
    def test_r1_order_preserving_rename(self, name, world):
        fuse, _local = ROSTER[name]
        claims, hierarchy = world
        subjects = _ranked({claim.item[0] for claim in claims})
        predicates = _ranked({claim.item[1] for claim in claims})
        sources = _ranked({claim.source_id for claim in claims})
        extractors = _ranked({claim.extractor_id for claim in claims})
        renamed = [
            Claim(
                (subjects[claim.item[0]], predicates[claim.item[1]]),
                claim.value, claim.lexical, sources[claim.source_id],
                extractors[claim.extractor_id], claim.confidence,
            )
            for claim in claims
        ]
        items_back = {
            (subjects[claim.item[0]], predicates[claim.item[1]]): claim.item
            for claim in claims
        }
        sources_back = {new: old for old, new in sources.items()}
        expected = fuse(claims, hierarchy)
        got = _mapped_back(fuse(renamed, hierarchy), items_back, sources_back)
        assert got.canonical_bytes() == expected.canonical_bytes()

    def test_r2_claim_list_permutation(self, name, world):
        fuse, _local = ROSTER[name]
        claims, hierarchy = world
        expected = fuse(claims, hierarchy).canonical_bytes()
        rng = random.Random(name)
        for order in (claims[::-1], rng.sample(claims, len(claims))):
            assert fuse(order, hierarchy).canonical_bytes() == expected

    def test_r3_disjoint_union(self, name):
        fuse, local = ROSTER[name]
        if not local:
            fuse = _sharded(fuse)
        left, hierarchy = _claims(3, 1, prefix="a:")
        right, same_chains = _claims(5, 1, prefix="b:")
        assert sorted(hierarchy) == sorted(same_chains)
        union = fuse(left + right, hierarchy)
        halves = [fuse(half, hierarchy) for half in (left, right)]
        for field in ("truths", "belief", "source_quality"):
            assert set(getattr(union, field)) == set().union(
                *(getattr(half, field) for half in halves)
            )
        for half in halves:
            part = FusionResult(half.method)
            part.truths = {item: union.truths[item] for item in half.truths}
            part.belief = {key: union.belief[key] for key in half.belief}
            part.source_quality = {
                source: union.source_quality[source]
                for source in half.source_quality
            }
            part.iterations = half.iterations
            part.converged_at = half.converged_at
            assert part.canonical_bytes() == half.canonical_bytes()
        assert union.iterations == max(half.iterations for half in halves)


def _sharded(fuse):
    """``fuse`` run component by component, as ``KnowledgeFusion.fuse``
    runs its component fuse (:func:`fuse_sharded`)."""

    def run(claims, hierarchy):
        method = SimpleNamespace(
            name="sharded", fuse=lambda shard: fuse(list(shard), hierarchy)
        )
        return fuse_by_component(method, ClaimSet(claims))[0]

    return run
