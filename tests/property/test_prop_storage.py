"""Backend-equivalence properties: the segment store is the memory
store.

For each seed, a synthetic claim world is replayed against a
:class:`MemoryBackend` store and a :class:`SegmentBackend` store (with
a small memtable limit so flushes and compactions actually interleave
with the mutations).  Every observable must agree: lengths, claim
lists, every query surface, and — the hard contract from the design
notes — byte-identical fusion verdicts at ``tolerance=0`` across the
full, sharded (:func:`fuse_sharded`) and incremental paths.
"""

import random

import pytest

from repro.fusion import Accu, MultiTruth
from repro.fusion.base import ClaimSet
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.incremental import DeltaJournal, canonical_claims
from repro.rdf.segments import SegmentBackend
from repro.rdf.store import TripleStore
from repro.synth.claims import ClaimWorldConfig, generate_claim_world
from repro.synth.deltas import (
    DeltaStreamConfig,
    generate_delta_stream,
    scored_from_claims,
)
from tests.conftest import fuse_by_component


def _fusion():
    return KnowledgeFusion(tolerance=0.0, max_iterations=8)


def _world_claims(seed, n_items=12, n_sources=6):
    world = generate_claim_world(
        ClaimWorldConfig(seed=seed, n_items=n_items, n_sources=n_sources)
    )
    return scored_from_claims(world.claims)


def _pair(tmp_path, memtable_limit=7, **kwargs):
    mem = TripleStore()
    seg = TripleStore(
        SegmentBackend(
            tmp_path / "seg", memtable_limit=memtable_limit, **kwargs
        )
    )
    return mem, seg


def _assert_equivalent(mem, seg):
    assert len(seg) == len(mem)
    assert seg.claims() == mem.claims()
    assert list(iter(seg)) == list(iter(mem))
    assert seg.subjects() == mem.subjects()
    assert seg.predicates() == mem.predicates()
    assert seg.match() == mem.match()
    # A pattern with an unbound subject: each backend walks its claims
    # once and answers in their order, so the answers are equal lists.
    distinct = list(dict.fromkeys(scored.triple for scored in mem.claims()))
    for predicate in mem.predicates():
        found = mem.match(predicate=predicate)
        assert found == [t for t in distinct if t.predicate == predicate]
        assert seg.match(predicate=predicate) == found
    for value in list(dict.fromkeys(t.obj for t in distinct))[:4]:
        found = mem.match(obj=value)
        assert found == [t for t in distinct if t.obj == value]
        assert seg.match(obj=value) == found
    for subject in mem.subjects():
        assert seg.predicates(subject) == mem.predicates(subject) == {
            scored.triple.predicate
            for scored in mem.claims() if scored.triple.subject == subject
        }
        assert sorted(
            map(str, seg.match(subject=subject))
        ) == sorted(map(str, mem.match(subject=subject)))
        for predicate in mem.predicates(subject):
            assert seg.objects(subject, predicate) == mem.objects(
                subject, predicate
            )
            # Element for element: both backends answer item lookups
            # in iter_claims() order (the StorageBackend contract).
            assert seg.claims_for_item(
                subject, predicate
            ) == mem.claims_for_item(subject, predicate)
            # The count builds no claim on either backend.
            count = len(mem.claims_for_item(subject, predicate))
            assert seg.count_for_item(subject, predicate) == count
            assert mem.count_for_item(subject, predicate) == count
    # An item no claim names.
    assert seg.claims_for_item("no-such-subject", "no-such-predicate") == []
    assert seg.count_for_item("no-such-subject", "no-such-predicate") == 0
    for triple in mem.match():
        assert (triple in seg) == (triple in mem)
        assert seg.claims(triple) == mem.claims(triple)


@pytest.mark.parametrize("seed", [5, 13, 37])
def test_random_interleavings_agree(tmp_path, seed):
    """Random add/remove/re-add/flush/compact interleavings leave both
    backends observably identical at every checkpoint."""
    rng = random.Random(seed)
    corpus = _world_claims(seed)
    mem, seg = _pair(
        tmp_path, memtable_limit=5, compact_threshold=4
    )
    removed_pool = []
    for step, scored in enumerate(corpus):
        roll = rng.random()
        if roll < 0.15 and len(mem) > 0:
            victim = rng.choice(mem.match())
            assert seg.remove(victim) == mem.remove(victim)
            removed_pool.append(scored)
        elif roll < 0.25 and removed_pool:
            back = removed_pool.pop(rng.randrange(len(removed_pool)))
            mem.add(back)
            seg.add(back)
        else:
            mem.add(scored)
            seg.add(scored)
        if roll > 0.9:
            seg.flush()
        if step % 11 == 10:
            _assert_equivalent(mem, seg)
    seg.compact()
    _assert_equivalent(mem, seg)


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_full_fusion_verdicts_byte_identical(tmp_path, seed):
    corpus = _world_claims(seed)
    mem, seg = _pair(tmp_path, memtable_limit=6)
    mem.add_all(corpus)
    seg.add_all(corpus)
    for method in (_fusion(), Accu(), MultiTruth()):
        reference = method.fuse(canonical_claims(mem))
        assert (
            method.fuse(canonical_claims(seg)).canonical_bytes()
            == reference.canonical_bytes()
        ), f"seed {seed}: {method.name} diverged across backends"


@pytest.mark.parametrize("seed", [3, 29])
def test_sharded_segment_fusion_byte_identical(tmp_path, seed):
    """Sharded fusion over the segment store's claims merges to the
    same bytes as over the memory store's, and as the unsharded fuse."""
    corpus = _world_claims(seed)
    mem, seg = _pair(tmp_path, memtable_limit=6)
    mem.add_all(corpus)
    seg.add_all(corpus)
    method = Accu()
    claims = ClaimSet.from_scored_triples(mem.claims())
    expected, expected_stats = fuse_by_component(method, claims)
    got, got_stats = fuse_by_component(
        method, ClaimSet.from_scored_triples(seg.claims())
    )
    assert got.canonical_bytes() == expected.canonical_bytes()
    assert got.canonical_bytes() == method.fuse(claims).canonical_bytes()
    assert got_stats.components == expected_stats.components
    assert got_stats.component_claims == expected_stats.component_claims


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_delta_journal_interleavings_agree(tmp_path, seed):
    """The same delta stream journalled into both backends keeps the
    stores equivalent and the receipts identical step by step."""
    world = _world_claims(seed)
    base, deltas = generate_delta_stream(
        world, DeltaStreamConfig(seed=seed, parts=3)
    )
    mem, seg = _pair(tmp_path, memtable_limit=5)
    mem.add_all(base)
    seg.add_all(base)
    mem_journal = DeltaJournal(mem)
    seg_journal = DeltaJournal(seg)
    for delta in deltas:
        mem_receipt = mem_journal.apply(delta)
        seg_receipt = seg_journal.apply(delta)
        assert seg_receipt.added == mem_receipt.added
        assert seg_receipt.noop_additions == mem_receipt.noop_additions
        assert seg_receipt.removed_claims == mem_receipt.removed_claims
        assert (
            seg_receipt.missing_retractions
            == mem_receipt.missing_retractions
        )
        assert seg_receipt.dirty_items == mem_receipt.dirty_items
        assert seg_receipt.dirty_sources == mem_receipt.dirty_sources
        _assert_equivalent(mem, seg)


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_incremental_fusion_byte_identical(tmp_path, seed):
    """An IncrementalFusion engine driven over a segment-backed store
    tracks the memory-backed engine byte for byte after every delta —
    with a memtable small enough that flushes happen mid-stream."""
    world = _world_claims(seed)
    base, deltas = generate_delta_stream(
        world, DeltaStreamConfig(seed=seed, parts=3)
    )
    mem, seg = _pair(tmp_path, memtable_limit=5)
    mem.add_all(base)
    seg.add_all(base)
    mem_engine = _fusion().begin_incremental(mem)
    seg_engine = _fusion().begin_incremental(seg)
    assert (
        seg_engine.result.canonical_bytes()
        == mem_engine.result.canonical_bytes()
    )
    for index, delta in enumerate(deltas, start=1):
        mem_outcome = mem_engine.apply_delta(delta)
        seg_outcome = seg_engine.apply_delta(delta)
        assert seg_outcome.sequence == mem_outcome.sequence == index
        assert (
            seg_outcome.result.canonical_bytes()
            == mem_outcome.result.canonical_bytes()
        ), f"seed {seed}: delta {index} diverged across backends"


def test_reopened_store_fuses_identically(tmp_path):
    """Durability does not perturb verdicts: flush, reopen from disk,
    and the reopened store fuses to the same bytes."""
    corpus = _world_claims(41)
    directory = tmp_path / "seg"
    seg = TripleStore(SegmentBackend(directory, memtable_limit=6))
    seg.add_all(corpus)
    seg.flush()
    expected = _fusion().fuse(canonical_claims(seg)).canonical_bytes()
    seg.close()
    reopened = TripleStore(SegmentBackend(directory))
    assert (
        _fusion().fuse(canonical_claims(reopened)).canonical_bytes()
        == expected
    )
