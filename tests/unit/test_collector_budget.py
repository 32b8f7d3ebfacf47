"""What the per-delta path costs the collector, as work counts.

CPython starts a full collector pass whenever the containers promoted
to its oldest generation since the last pass exceed a quarter of the
long-lived population, and a pass walks every tracked container: a
container a delta leaves alive for a few thousand allocations is paid
for about four times over by a later pass, whatever the heap size.  So
the path ``apply_delta`` walks builds no container per item or per
claim — the store copy shares its index leaves, ``ClaimSet`` groups
its claims in flat tables, a fused item has one frozen truth set (one
per *value* where it decides a single one), an estimator ballot is a
value until it is two — and these counts fail if one comes back.
``gc`` is used here only: nothing under ``src/`` imports it (pinned in
``test_config_surface.py``).
"""

import gc

import pytest
from hypothesis import given, settings

from repro.fusion.base import ClaimSet, ClaimSetStats
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.incremental import ClaimDelta
from repro.incremental.journal import DeltaJournal
from repro.rdf.backend import MemoryBackend
from repro.rdf.segments import SegmentBackend
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value
from repro.synth.claims import ClaimWorldConfig, generate_claim_world
from tests.property.test_prop_claims import configs

EXTRACTORS = ("dom", "text", "kb")


def _corpus(n_items, n_sources, coverage, *, hierarchical):
    """A one-component claim world, its claims dealt to three
    extractors (two or more: the estimator tallies every claim)."""
    world = generate_claim_world(
        ClaimWorldConfig(
            seed=11, n_items=n_items, n_sources=n_sources,
            coverage=coverage, hierarchical=hierarchical,
        )
    )
    scored = [
        ScoredTriple(
            Triple(*claim.item, Value(claim.lexical)),
            Provenance(claim.source_id, EXTRACTORS[index % 3]),
            claim.confidence,
        )
        for index, claim in enumerate(world.claims)
    ]
    return world, scored


class _Promotions:
    """Containers moved to the oldest generation while registered in
    ``gc.callbacks``: its growth over every generation-1 pass."""

    def __init__(self):
        self.count = 0
        self._before = 0

    def __call__(self, phase, info):
        if info["generation"] != 1:
            return
        if phase == "start":
            self._before = len(gc.get_objects(generation=2))
        else:
            self.count += len(gc.get_objects(generation=2)) - self._before


class TestStoreCopy:
    def test_copy_and_journal_allocate_by_the_delta_not_the_store(self):
        _world, scored = _corpus(400, 14, 0.9, hierarchical=False)
        backend = MemoryBackend()
        backend.add_all(scored)
        assert len(backend) > 5000
        delta = ClaimDelta(
            added=[
                ScoredTriple(
                    Triple(
                        one.triple.subject, one.triple.predicate,
                        Value(f"new-{index}"),
                    ),
                    one.provenance,
                    0.5,
                )
                for index, one in enumerate(scored[:7])
            ],
            retracted=[one.triple for one in scored[100:103]],
        )
        gc.collect()
        gc.disable()
        try:
            # With the collector off, the youngest generation's count
            # is containers allocated minus containers freed.
            start = gc.get_count()[0]
            clone = backend.copy()
            copied = gc.get_count()[0]
            receipt = DeltaJournal(TripleStore(clone)).apply(delta)
            journalled = gc.get_count()[0]
        finally:
            gc.enable()
        assert copied - start < 64
        assert receipt.added == 7 and receipt.removed_claims > 0
        # Per index write: a second-level dict, a leaf set, a record.
        assert journalled - copied < 20 * (7 + receipt.removed_claims)
        assert len(clone) == len(backend) + 7 - receipt.removed_claims

    @pytest.mark.parametrize("memtable_fill", [0, 1, 600])
    def test_segment_copy_allocates_no_container_per_memtable_entry(
        self, tmp_path, memtable_fill
    ):
        """A memtable entry is a tuple the copy shares, the key filter
        is shared outright: ``copy()`` is a handful of flat copies
        whatever the memtable and the segments hold (one list per
        entry and a copy of the filter before)."""
        _world, scored = _corpus(400, 14, 0.9, hierarchical=False)
        backend = SegmentBackend(tmp_path / "segments", memtable_limit=10**6)
        backend.add_all(scored[memtable_fill:])
        backend.flush()
        backend.add_all(scored[:memtable_fill])
        assert len(backend) > 5000 and len(backend._mem) == memtable_fill
        gc.collect()
        gc.disable()
        try:
            start = gc.get_count()[0]
            clone = backend.copy()
            copied = gc.get_count()[0]
        finally:
            gc.enable()
        assert copied - start < 16
        assert len(clone) == len(backend)
        assert clone.claims_for_item(*scored[0].triple.item) == (
            backend.claims_for_item(*scored[0].triple.item)
        )


class TestDeltaPromotions:
    #: Containers one delta may promote per re-fused claim.  This
    #: corpus, like the web world, has an item per two claims: with a
    #: container or two per item at each of the sites it read 8.1,
    #: without them 1.0.
    PER_REFUSED_CLAIM = 2.0

    def test_one_component_delta_promotes_a_bounded_share(self):
        world, scored = _corpus(1000, 3, 0.7, hierarchical=True)
        store = TripleStore()
        store.add_all(scored)
        engine = KnowledgeFusion(
            hierarchy=world.hierarchy, tolerance=0.0, max_iterations=8
        ).begin_incremental(store)
        assert engine.components == 1 and len(store) > 2000
        first = scored[0]
        delta = ClaimDelta(
            added=[
                ScoredTriple(
                    Triple(
                        first.triple.subject, first.triple.predicate,
                        Value("somewhere else"),
                    ),
                    first.provenance,
                    0.6,
                )
            ]
        )
        promotions = _Promotions()
        gc.collect()
        thresholds = gc.get_threshold()
        # Full passes held off; the young generations run as always,
        # and the last pass promotes what the delta left alive.
        gc.set_threshold(700, 10, 10**9)
        gc.callbacks.append(promotions)
        try:
            outcome = engine.apply_delta(delta)
            gc.collect(1)
        finally:
            gc.callbacks.remove(promotions)
            gc.set_threshold(*thresholds)
        assert outcome.refused_claims == len(store) + 1
        assert 0 < promotions.count
        assert (
            promotions.count
            < self.PER_REFUSED_CLAIM * outcome.refused_claims
        )


def _nested(claims):
    """The grouping a dict and a list per item would give."""
    by_item = {}
    for claim in claims:
        by_item.setdefault(claim.item, {}).setdefault(
            claim.value, []
        ).append(claim)
    return by_item


def _assert_groups_as_nested(claims: ClaimSet):
    by_item = _nested(claims)
    assert claims.items() == list(by_item)
    for item, values in by_item.items():
        answer = claims.values_of(item)
        assert list(answer.items()) == list(values.items())
        assert all(
            ours is theirs
            for value in values
            for ours, theirs in zip(answer[value], values[value])
        )
        covering = {
            claim.source_id
            for value_claims in values.values()
            for claim in value_claims
        }
        # Same insertion sequence, so the same iteration order.
        assert list(claims.sources_claiming(item)) == list(covering)
    assert claims.values_of(("no such", "item")) == {}
    assert claims.sources_claiming(("no such", "item")) == set()
    assert claims.stats() == ClaimSetStats(
        n_items=len(by_item),
        n_values=sum(len(values) for values in by_item.values()),
        n_sources=len({claim.source_id for claim in claims}),
        n_extractors=len({claim.extractor_id for claim in claims}),
        n_claims=len(claims),
    )


class TestFlatGroups:
    @given(configs)
    @settings(max_examples=50, deadline=None)
    def test_flat_tables_answer_as_the_nested_dicts_did(self, config):
        world = generate_claim_world(config)
        # Interleave the items: grouping must not rely on input order.
        shuffled = sorted(
            world.claims, key=lambda claim: (claim.source_id, claim.item)
        )
        for claims in (world.claims, ClaimSet(shuffled)):
            _assert_groups_as_nested(claims)

    @given(configs)
    @settings(max_examples=25, deadline=None)
    def test_add_after_a_read_regroups(self, config):
        flat = list(generate_claim_world(config).claims)
        claims = ClaimSet(flat[: len(flat) // 2])
        _assert_groups_as_nested(claims)
        for claim in flat[len(flat) // 2:]:
            claims.add(claim)
        _assert_groups_as_nested(claims)
        assert list(claims) == flat
