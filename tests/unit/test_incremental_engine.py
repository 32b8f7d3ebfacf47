"""Unit tests for the dirty-component incremental fusion engine."""

import random
from collections import Counter
from collections.abc import Mapping

import pytest

from repro.errors import DeltaError
from repro.fusion.correlations import CorrelationEstimator
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.fusion.sharding import patch_results, shard_claims
from repro.fusion.vote import Vote
from repro.fusion.base import Claim, ClaimSet
from repro.incremental import ClaimDelta, IncrementalFusion, canonical_claims
from repro.incremental.engine import _Corpus
from repro.obs import MetricsRegistry
from repro.rdf.segments import SegmentBackend
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value
from repro.synth.claims import ClaimWorldConfig, generate_claim_world
from repro.synth.deltas import scored_from_claims


def _corpus(n_worlds=6, n_items=6, n_sources=4, store=None):
    """Disjoint claim worlds — one connected component per world."""
    scored = []
    for index in range(n_worlds):
        world = generate_claim_world(
            ClaimWorldConfig(
                seed=400 + index, n_items=n_items, n_sources=n_sources
            )
        )
        for one in scored_from_claims(world.claims):
            triple = one.triple
            scored.append(
                ScoredTriple(
                    Triple(
                        f"w{index}/{triple.subject}",
                        triple.predicate,
                        triple.obj,
                    ),
                    Provenance(
                        f"w{index}/{one.provenance.source_id}",
                        one.provenance.extractor_id,
                        one.provenance.locator,
                    ),
                    one.confidence,
                )
            )
    store = TripleStore() if store is None else store
    store.add_all(scored)
    return store


def _fusion(**kwargs):
    return KnowledgeFusion(tolerance=0.0, max_iterations=8, **kwargs)


def _component_delta(store, value="fresh-value"):
    """A delta confined to the component of the first subject."""
    first = min(scored.triple.subject for scored in store.claims())
    prefix = first.split("/", 1)[0]
    return ClaimDelta(
        added=[
            ScoredTriple(
                Triple(first, "capital", Value(value)),
                Provenance(f"{prefix}/source00", "synthetic"),
                0.8,
            )
        ],
        label="one-component",
    )


class TestPrime:
    def test_prime_matches_full_fusion(self):
        store = _corpus()
        reference = _fusion().fuse(canonical_claims(store.copy()))
        engine = _fusion().begin_incremental(store)
        assert engine.result.canonical_bytes() == reference.canonical_bytes()

    def test_prime_and_the_sharded_fuse_share_one_copying_merge(self):
        store = _corpus()
        claims = canonical_claims(store.copy())
        sharded = _fusion().fuse(claims)
        engine = _fusion().begin_incremental(store)
        assert engine.result.canonical_bytes() == sharded.canonical_bytes()
        # The merged truth sets are the components' own, not copies —
        # what keeps a holder of the merged result from ruining the
        # engine's cached components is their type ...
        for entry in engine._state.entries:
            for item, values in entry.result.truths.items():
                assert engine.result.truths[item] is values
        expected = dict(engine.result.truths)
        for values in expected.values():
            assert type(values) is frozenset
            with pytest.raises(AttributeError):
                values.clear()
            with pytest.raises(AttributeError):
                values.add("ruined")
        served = engine.result.canonical_bytes()
        engine.apply_delta(ClaimDelta())
        assert engine.result.truths == expected
        assert engine.result.canonical_bytes() == served
        # ... and the same holds for what a sharded fuse merged.
        parts = [Vote().fuse(shard) for shard in shard_claims(claims)]
        merged, _maps = patch_results("vote", parts)
        assert len(merged.truths) == sum(len(part.truths) for part in parts)
        for part in parts:
            for item, values in part.truths.items():
                assert merged.truths[item] is values
                assert type(values) is frozenset

    def test_components_counted(self):
        engine = _fusion().begin_incremental(_corpus(n_worlds=5))
        assert engine.components == 5

    def test_sequence_starts_at_zero(self):
        engine = _fusion().begin_incremental(_corpus(n_worlds=2))
        assert engine.sequence == 0

    def test_unprimed_engine_refuses_state_access(self):
        engine = IncrementalFusion(_fusion(), _corpus(n_worlds=2))
        with pytest.raises(DeltaError):
            engine.claims
        with pytest.raises(DeltaError):
            engine.result
        with pytest.raises(DeltaError):
            engine.apply_delta(ClaimDelta())


class TestApplyDelta:
    def test_single_component_delta_reuses_the_rest(self):
        engine = _fusion().begin_incremental(_corpus())
        outcome = engine.apply_delta(_component_delta(engine.store))
        assert outcome.sequence == 1
        assert outcome.components == 6
        assert outcome.dirty_components == 1
        assert outcome.reused_components == 5
        assert outcome.reused_verdicts > 0
        assert not outcome.degenerate
        assert outcome.receipt.added == 1

    def test_delta_result_matches_full_refusion(self):
        engine = _fusion().begin_incremental(_corpus())
        engine.apply_delta(_component_delta(engine.store))
        reference = _fusion().fuse(canonical_claims(engine.store.copy()))
        assert engine.result.canonical_bytes() == reference.canonical_bytes()

    def test_empty_delta_dirties_nothing(self):
        engine = _fusion().begin_incremental(_corpus(n_worlds=4))
        before = engine.result.canonical_bytes()
        outcome = engine.apply_delta(ClaimDelta(label="noop"))
        assert outcome.dirty_components == 0
        assert outcome.reused_components == 4
        assert engine.result.canonical_bytes() == before

    def test_retraction_dirties_its_component(self):
        engine = _fusion().begin_incremental(_corpus())
        victim = engine.store.claims()[0].triple
        outcome = engine.apply_delta(ClaimDelta(retracted=[victim]))
        assert outcome.dirty_components == 1
        assert outcome.receipt.removed_claims >= 1
        assert victim not in engine.store
        reference = _fusion().fuse(canonical_claims(engine.store.copy()))
        assert engine.result.canonical_bytes() == reference.canonical_bytes()

    def test_sequence_advances_per_delta(self):
        engine = _fusion().begin_incremental(_corpus(n_worlds=3))
        for expected in (1, 2, 3):
            outcome = engine.apply_delta(
                _component_delta(engine.store, value=f"v{expected}")
            )
            assert outcome.sequence == expected
        assert engine.sequence == 3

    def test_retracting_every_claim_rejected_and_state_kept(self):
        engine = _fusion().begin_incremental(_corpus(n_worlds=2))
        before_bytes = engine.result.canonical_bytes()
        before_claims = len(engine.store)
        wipe = ClaimDelta(
            retracted=[scored.triple for scored in engine.store.claims()]
        )
        with pytest.raises(DeltaError):
            engine.apply_delta(wipe)
        # The failed delta must not leak into the visible state.
        assert len(engine.store) == before_claims
        assert engine.result.canonical_bytes() == before_bytes
        assert engine.sequence == 0

    def test_cached_results_survive_caller_mutation(self):
        # Two truths an item, so a functional constraint has verdicts
        # to cut down.
        world = generate_claim_world(
            ClaimWorldConfig(
                seed=77, n_items=8, n_sources=5, truths_per_item=2
            )
        )
        store = TripleStore()
        store.add_all(scored_from_claims(world.claims))
        engine = _fusion().begin_incremental(store)
        outcome = engine.apply_delta(ClaimDelta(label="noop"))
        served = outcome.result.canonical_bytes()
        cached = [
            (entry, dict(entry.result.truths), entry.result.canonical_bytes())
            for entry in engine._state.entries
        ]
        # The one way left to change a served result: rebind an item,
        # as the functional constraint does ...
        before = dict(outcome.result.truths)
        outcome.result.truths.update(
            _fusion().functional_rebinds(
                outcome.result, lambda predicate: True
            )
        )
        rebound = [
            item for item, values in outcome.result.truths.items()
            if values is not before[item]
        ]
        assert rebound
        assert all(
            type(values) is frozenset and len(values) == 1
            for values in map(outcome.result.truths.get, rebound)
        )
        # ... which reaches no cached component ...
        for entry, truths, as_bytes in cached:
            assert entry.result.truths == truths
            assert all(
                entry.result.truths[item] is truths[item] for item in truths
            )
            assert entry.result.canonical_bytes() == as_bytes
        # ...so the next merged result is rebuilt intact.
        fresh = engine.apply_delta(ClaimDelta(label="noop-2"))
        assert fresh.result.canonical_bytes() == served
        reference = _fusion().fuse(canonical_claims(engine.store.copy()))
        assert fresh.result.canonical_bytes() == reference.canonical_bytes()


class TestCallerWritesStayOut:
    """A served result is the caller's: writes to its belief and
    source-quality maps reach neither the engine's own copies, which
    the next delta's merge is patched from, nor that merge."""

    @staticmethod
    def _scribble(result):
        for mapping, stranger in (
            (result.belief, (("nobody", "said"), "this")),
            (result.source_quality, "nobody"),
        ):
            # One key of the delta's component, one of another.
            first, last = min(mapping), max(mapping)
            del mapping[first]
            mapping[last] = 0.123
            mapping[stranger] = 1.0

    def test_belief_and_source_quality_writes_leave_the_next_delta(self):
        from tests.oracles.whole_store_engine import WholeStoreEngine

        store = _corpus()
        oracle = WholeStoreEngine(_fusion(), store.copy())
        oracle.prime()
        engine = _fusion().begin_incremental(store)
        served = engine.result
        for value in ("first", "second"):
            self._scribble(served)
            delta = _component_delta(engine.store, value=value)
            outcome = engine.apply_delta(delta)
            expected = oracle.apply_delta(delta)
            assert outcome.dirty_components == 1
            assert (
                outcome.result.canonical_bytes()
                == expected.result.canonical_bytes()
            )
            assert list(outcome.result.truths) == list(
                expected.result.truths
            )
            served = outcome.result


class CountingStore(TripleStore):
    """Counts whole-store reads, and the journal's and the re-read's
    calls — the item of each ``claims_for_item``, the triple of each
    ``remove`` — across the engine's copy lineage."""

    def __init__(self, backend=None, counts=None):
        super().__init__(backend)
        self.counts = (
            {
                "full_reads": 0, "item_reads": [], "triple_reads": 0,
                "removes": [],
            }
            if counts is None else counts
        )

    def copy(self):
        return CountingStore(self.backend.copy(), self.counts)

    def claims(self, triple=None):
        self.counts["full_reads" if triple is None else "triple_reads"] += 1
        return super().claims(triple)

    def remove(self, triple):
        self.counts["removes"].append(triple)
        return super().remove(triple)

    def claims_for_item(self, subject, predicate):
        self.counts["item_reads"].append((subject, predicate))
        return super().claims_for_item(subject, predicate)

    def snapshot(self):
        self.counts["full_reads"] += 1
        return super().snapshot()

    def __iter__(self):
        self.counts["full_reads"] += 1
        return super().__iter__()


class _Unwalkable(Mapping):
    """A read-only mapping that answers lookups and refuses a walk."""

    def __init__(self, held):
        self._held = held

    def __getitem__(self, key):
        return self._held[key]

    def __len__(self):
        return len(self._held)

    def __iter__(self):
        raise AssertionError("a carried entry's map was walked")


class TestDeltaWorkFollowsTheRegion:
    """Regression: a delta used to re-read, sort and re-shard the whole
    store (``canonical_claims`` + ``shard_claims`` over every claim,
    one digest per component) however few components it touched.

    Now it asks the store for its dirty items only — one
    ``claims_for_item`` call per dirty item, indexed reads that decode
    and sort nothing on either backend — and builds fusion claims for
    the region alone."""

    @pytest.mark.parametrize("backend_name", ["memory", "segment"])
    def test_one_component_delta_reads_and_builds_only_its_region(
        self, monkeypatch, tmp_path, backend_name
    ):
        import repro.fusion.base as base_mod
        import repro.fusion.knowledge_fusion as fusion_mod

        backend = (
            SegmentBackend(tmp_path / "segments")
            if backend_name == "segment" else None
        )
        store = _corpus(n_worlds=50, store=CountingStore(backend))
        engine = _fusion().begin_incremental(store)
        total_claims = len(engine.claims)
        delta = _component_delta(engine.store)
        assert store.counts["full_reads"] > 0  # the prime reads it all
        store.counts["full_reads"] = 0
        store.counts["item_reads"].clear()

        real_claim = base_mod.Claim
        built = []

        def counting_claim(*args, **fields):
            built.append(args[0] if args else fields["item"])
            return real_claim(*args, **fields)

        # Both places fusion claims are constructed: decoding stored
        # triples and folding in the extractor weights.
        monkeypatch.setattr(base_mod, "Claim", counting_claim)
        monkeypatch.setattr(fusion_mod, "Claim", counting_claim)
        outcome = engine.apply_delta(delta)
        monkeypatch.undo()

        assert outcome.components == 50
        assert outcome.dirty_components == 1
        assert store.counts["full_reads"] == 0, (
            "a one-component delta read the whole store"
        )
        # Each dirty item read once, and nothing else.
        assert sorted(store.counts["item_reads"]) == sorted(
            outcome.receipt.dirty_items
        )
        region = outcome.refused_claims
        assert region < total_claims / 20
        # One decode of the dirty item, one reweight of the region.
        assert 0 < len(built) <= 2 * region
        assert {subject.split("/")[0] for subject, _ in built} == {"w0"}
        reference = _fusion().fuse(canonical_claims(engine.store.copy()))
        assert engine.result.canonical_bytes() == reference.canonical_bytes()


    @pytest.mark.parametrize("backend_name", ["memory", "segment"])
    def test_one_extractor_delta_estimates_nothing_and_walks_no_carried_map(
        self, monkeypatch, tmp_path, backend_name
    ):
        """Regression: every delta re-merged every component's belief
        and source-quality map into the result, and asked the
        extractor estimator for weights that one extractor fixes at
        1.0 — two walks over the store, whatever the delta."""
        from tests.oracles.whole_store_engine import WholeStoreEngine

        backend = (
            SegmentBackend(tmp_path / "segments")
            if backend_name == "segment" else None
        )
        store = _corpus(n_worlds=50, store=TripleStore(backend))
        oracle = WholeStoreEngine(_fusion(), store.copy())
        oracle.prime()
        engine = _fusion().begin_incremental(store)
        assert engine._state.extractor_weights == {"synthetic": 1.0}
        delta = _component_delta(engine.store)
        carried = [
            entry for entry in engine._state.entries
            if not any(source.startswith("w0/") for source in entry.sources)
        ]
        assert len(carried) == 49
        for entry in carried:
            entry.result.belief = _Unwalkable(entry.result.belief)
            entry.result.source_quality = _Unwalkable(
                entry.result.source_quality
            )
        estimates = []
        real_estimate = CorrelationEstimator.estimate

        def estimate(self, claims):
            estimates.append(self.by)
            return real_estimate(self, claims)

        monkeypatch.setattr(CorrelationEstimator, "estimate", estimate)
        outcome = engine.apply_delta(delta)
        # An empty region is a patch too, not a merge of everything.
        noop = engine.apply_delta(ClaimDelta(label="noop"))
        monkeypatch.undo()

        assert outcome.dirty_components == 1
        assert noop.dirty_components == 0
        assert "extractor" not in estimates
        assert estimates == ["source"]  # the re-fused component's own
        expected = oracle.apply_delta(delta)
        assert (
            outcome.result.canonical_bytes()
            == expected.result.canonical_bytes()
            == noop.result.canonical_bytes()
        )
        assert list(outcome.result.truths) == list(expected.result.truths)

    def test_retractions_and_duplicate_adds_cost_one_store_call(self):
        """Regression: the journal read ``claims(triple)`` and called
        ``remove(triple)`` per retraction — two walks of the claim dict
        each on the memory backend — and read ``claims(triple)`` back
        after every add that left the store's size alone.  Now a
        retraction is one ``remove``, whose returned claims name the
        sources, and an add reads nothing back."""
        store = _corpus(n_worlds=8, store=CountingStore())
        weak = ScoredTriple(
            Triple("w7/entity000", "attr", Value("weakly held")),
            Provenance("w7/source00", "synthetic"),
            0.4,
        )
        assert store.add(weak)
        engine = _fusion().begin_incremental(store)
        held = engine.store.claims()
        retracted = []
        for scored in held:
            if scored.triple not in retracted:
                retracted.append(scored.triple)
        retracted = retracted[5:30]
        assert len(retracted) >= 20
        removed = sum(scored.triple in retracted for scored in held)
        absent = Triple("w0/nobody", "capital", Value("nowhere"))
        kept = [
            scored for scored in held if scored.triple not in retracted
        ]
        delta = ClaimDelta(
            # One triple twice, one the store never held.
            retracted=[*retracted, retracted[0], absent],
            added=[
                # Duplicate keys: the stored object, an equal one, a
                # weaker one (no-ops) and a stronger one (a refresh).
                kept[0],
                ScoredTriple(
                    kept[1].triple, kept[1].provenance, kept[1].confidence
                ),
                weak.with_confidence(0.2),
                weak.with_confidence(0.9),
                # ... and a retracted triple put back.
                ScoredTriple(
                    retracted[3], Provenance("w0/source00", "synthetic"), 0.5
                ),
            ],
        )
        assert weak.triple not in retracted
        for key in ("full_reads", "triple_reads"):
            store.counts[key] = 0
        store.counts["removes"].clear()
        outcome = engine.apply_delta(delta)

        assert store.counts["triple_reads"] == 0
        # One remove per retracted triple, the repeat and the absent
        # one included.
        assert store.counts["removes"] == list(delta.retracted)
        assert store.counts["full_reads"] == 0
        receipt = outcome.receipt
        assert receipt.removed_claims == removed
        assert receipt.missing_retractions == 2
        assert receipt.noop_additions == 3
        assert receipt.added == 2
        assert receipt.dirty_items == {
            triple.item for triple in retracted
        } | {scored.triple.item for scored in delta.added}
        assert len(engine.store) == len(held) - removed + 1
        reference = _fusion().fuse(canonical_claims(engine.store.copy()))
        assert engine.result.canonical_bytes() == reference.canonical_bytes()


class TestADeltaGroupsItsClaimsOnce:
    """Regression: between the committed corpus and the kernel every
    stage — reweight, shard, expand — re-hashed each claim into a
    ``ClaimSet`` of its own (about three ``add`` calls per *stored*
    claim and delta), ``compile_claims`` and ``_specialize`` asked for
    a ``values_of`` dict per item, and the component's digest
    serialized every claim it held to learn that one item changed (a
    component is now compared with its committed entry on the runs a
    delta re-read, and only after a weight shift on every run).  The
    re-read of the dirty items hashed their claim keys too.

    On the one-component, hierarchical, three-extractor corpus of
    ``test_collector_budget.py``."""

    @pytest.fixture()
    def primed(self):
        from tests.unit.test_collector_budget import _corpus as budget_corpus

        world, scored = budget_corpus(1000, 3, 0.7, hierarchical=True)
        store = TripleStore()
        store.add_all(scored)

        def fusion():
            return _fusion(hierarchy=world.hierarchy)

        engine = fusion().begin_incremental(store)
        assert engine.components == 1 and len(store) > 2000
        return engine, scored, fusion

    @staticmethod
    def _spies(monkeypatch):
        import repro.incremental.engine as engine_mod

        adds, grouped, compared = [], [], []
        real_add, real_values_of = ClaimSet.add, ClaimSet.values_of
        real_same_claims = engine_mod._same_claims

        def add(self, claim):
            adds.append(claim)
            return real_add(self, claim)

        def values_of(self, item):
            grouped.append(item)
            return real_values_of(self, item)

        def same_claims(now, before):
            # The items whose runs are compared, each once.
            compared.extend(dict.fromkeys(claim.item for claim in now))
            return real_same_claims(now, before)

        monkeypatch.setattr(ClaimSet, "add", add)
        monkeypatch.setattr(ClaimSet, "values_of", values_of)
        monkeypatch.setattr(engine_mod, "_same_claims", same_claims)
        return adds, grouped, compared

    def test_ten_claim_delta_compares_its_dirty_items_only(
        self, primed, monkeypatch
    ):
        from tests.oracles.whole_store_engine import WholeStoreEngine

        engine, scored, fusion = primed
        oracle = WholeStoreEngine(fusion(), engine.store.copy())
        oracle.prime()
        delta = ClaimDelta(
            added=[
                ScoredTriple(
                    Triple(
                        one.triple.subject, one.triple.predicate,
                        Value(f"elsewhere {index}"),
                    ),
                    one.provenance,
                    0.6,
                )
                for index, one in enumerate(scored[:20:2])
            ]
        )
        adds, grouped, compared = self._spies(monkeypatch)
        outcome = engine.apply_delta(delta)
        monkeypatch.undo()

        assert outcome.receipt.added == 10
        assert outcome.refused_claims == len(engine.store)
        dirty = sorted(outcome.receipt.dirty_items)
        hierarchy = engine.fusion._casefold_hierarchy
        # The re-read dirty items are deduplicated in their sorted
        # order and adopted: no claim key is hashed anywhere.
        assert adds == []

        items, order, starts = engine.claims.spans()
        runs = {
            item: order[begin:end]
            for item, begin, end in zip(items, starts, starts[1:])
        }
        plain = [
            item for item, run in runs.items()
            if len(run) == 1 and run[0].value not in hierarchy
        ]
        assert len(plain) > 20 and not set(plain) & set(grouped)
        assert grouped and len(grouped) == len(set(grouped))

        assert compared == dirty

        expected = oracle.apply_delta(delta)
        assert (
            outcome.result.canonical_bytes()
            == expected.result.canonical_bytes()
        )
        assert list(outcome.result.truths) == list(expected.result.truths)

    def test_a_weight_shift_compares_every_candidate_claim_and_equals_the_oracle(
        self, primed, monkeypatch
    ):
        from tests.oracles.whole_store_engine import WholeStoreEngine

        engine, scored, fusion = primed
        oracle = WholeStoreEngine(fusion(), engine.store.copy())
        oracle.prime()
        before = dict(engine._state.extractor_weights)
        # A fourth extractor repeating three of "kb"'s claims: the two
        # are discounted as correlated, every "kb" claim is reweighted.
        kb = [one for one in scored if one.provenance.extractor_id == "kb"]
        delta = ClaimDelta(
            added=[
                ScoredTriple(
                    one.triple,
                    Provenance(one.provenance.source_id, "mirror"),
                    one.confidence,
                )
                for one in kb[:3]
            ]
        )
        _adds, _grouped, compared = self._spies(monkeypatch)
        outcome = engine.apply_delta(delta)
        monkeypatch.undo()

        after = engine._state.extractor_weights
        assert before["kb"] == 1.0 and after["kb"] < 1.0
        assert compared == engine.claims.items()
        expected = oracle.apply_delta(delta)
        for field in (
            "components", "dirty_components", "reused_components",
            "reused_verdicts", "refused_claims", "degenerate",
        ):
            assert getattr(outcome, field) == getattr(expected, field), field
        assert (
            outcome.result.canonical_bytes()
            == expected.result.canonical_bytes()
        )
        assert list(outcome.result.truths) == list(expected.result.truths)
        # The next, weight-preserving delta compares its one item.
        follow_up = ClaimDelta(
            added=[
                ScoredTriple(
                    Triple(
                        scored[0].triple.subject, scored[0].triple.predicate,
                        Value("one more"),
                    ),
                    scored[0].provenance,
                    0.5,
                )
            ]
        )
        _adds, _grouped, compared = self._spies(monkeypatch)
        outcome = engine.apply_delta(follow_up)
        monkeypatch.undo()
        assert compared == [scored[0].triple.item]
        assert (
            outcome.result.canonical_bytes()
            == oracle.apply_delta(follow_up).result.canonical_bytes()
        )


class TestReuseComparesTheClaims:
    """A component is reused iff a committed entry has its sources, its
    items and its reweighted claims — the decision the whole-store
    engine in ``tests/oracles`` takes by digest, taken by comparison."""

    @staticmethod
    def _apply_as_the_oracle(fusion, store, delta):
        from tests.oracles.whole_store_engine import WholeStoreEngine

        oracle = WholeStoreEngine(fusion(), store.copy())
        oracle.prime()
        engine = fusion().begin_incremental(store)
        outcome = engine.apply_delta(delta)
        expected = oracle.apply_delta(delta)
        for field in (
            "components", "dirty_components", "reused_components",
            "reused_verdicts", "refused_claims", "degenerate",
        ):
            assert getattr(outcome, field) == getattr(expected, field), field
        assert (
            outcome.result.canonical_bytes()
            == expected.result.canonical_bytes()
        )
        assert list(outcome.result.truths) == list(expected.result.truths)
        return engine, outcome

    def test_a_claim_retracted_and_added_back_unchanged_is_reused(self):
        store = _corpus(n_worlds=3)
        one = min(store.claims(), key=lambda scored: scored.triple.subject)
        again = [
            scored for scored in store.claims() if scored.triple == one.triple
        ]
        delta = ClaimDelta(added=again, retracted=[one.triple])
        _engine, outcome = self._apply_as_the_oracle(_fusion, store, delta)
        assert outcome.receipt.dirty_items == {one.triple.item}
        assert outcome.receipt.removed_claims == len(again)
        assert outcome.dirty_components == 0
        assert outcome.reused_components == 3

    def test_a_weight_shift_reuses_a_component_it_left_unchanged(self):
        # World 0's claims are dealt to extractors "a", "b" and "c",
        # world 1's all go to "solo"; a "mirror" of three of "a"'s
        # claims makes the two correlated and moves their weights,
        # while "solo" keeps its own.
        store = TripleStore()
        claims = sorted(
            _corpus(n_worlds=2, n_items=8, n_sources=5).claims(),
            key=lambda scored: (
                scored.triple.item, scored.provenance.source_id
            ),
        )
        for index, scored in enumerate(claims):
            world1 = scored.triple.subject.startswith("w1/")
            store.add(
                ScoredTriple(
                    scored.triple,
                    Provenance(
                        scored.provenance.source_id,
                        "solo" if world1 else "abc"[index % 3],
                    ),
                    scored.confidence,
                )
            )
        mirror = [
            ScoredTriple(
                scored.triple,
                Provenance(scored.provenance.source_id, "mirror"),
                scored.confidence,
            )
            for scored in store.claims()
            if scored.provenance.extractor_id == "a"
        ][:3]
        engine, outcome = self._apply_as_the_oracle(
            _fusion, store, ClaimDelta(added=mirror)
        )
        weights = engine._state.extractor_weights
        assert weights["a"] < 1.0 and weights["solo"] == 1.0
        assert outcome.components == 2
        assert outcome.dirty_components == 1
        assert outcome.reused_components == 1

    def test_a_negative_zero_confidence_added_back_as_zero_is_refused(self):
        # Without the extractor discount claims stand as stored, so
        # the two zeros reach the comparison, and their reprs differ.
        def fusion():
            return _fusion(use_extractor_correlations=False)

        store = _corpus(n_worlds=3)
        one = min(store.claims(), key=lambda scored: scored.triple.subject)
        store.remove(one.triple)
        store.add(one.with_confidence(-0.0))
        delta = ClaimDelta(
            added=[one.with_confidence(0.0)], retracted=[one.triple]
        )
        _engine, outcome = self._apply_as_the_oracle(fusion, store, delta)
        assert outcome.dirty_components == 1
        assert outcome.reused_components == 2


class _CountingClaims:
    """An iterable of claims that counts its passes and, per claim
    field, how often the estimator read it."""

    def __init__(self, claims):
        self.reads = {"item": 0, "value": 0, "source_id": 0, "extractor_id": 0}
        self.passes = 0
        reads = self.reads

        class Counted:
            __slots__ = ("_claim",)

            def __init__(self, one):
                self._claim = one

            def __getattr__(self, name):
                reads[name] += 1
                return getattr(self._claim, name)

        self._claims = [Counted(one) for one in claims]

    def __len__(self):
        return len(self._claims)

    def __iter__(self):
        self.passes += 1
        return iter(self._claims)


class TestEstimatorBuildsWhatItsPairLoopReads:
    """The estimate is one walk: the claims are read in one pass, and
    a claim is read past its item and party only where its item has
    another claim to pair it with."""

    def test_one_extractor_is_one_pass_and_no_table(self):
        """Regression: with one extractor in the corpus the estimate is
        ``{extractor: 1.0}``, yet both tables were built over every
        claim (most of what a small delta cost on a one-extractor
        store).  One party: nothing but the party is read."""
        claims = _CountingClaims(canonical_claims(_corpus(n_worlds=20)))
        estimate = CorrelationEstimator(by="extractor").estimate(claims)
        assert estimate.weights == {"synthetic": 1.0}
        assert estimate.dependence == {}
        assert claims.passes == 1
        assert claims.reads == {
            "item": 0, "value": 0, "source_id": 0,
            "extractor_id": len(claims),
        }

    @staticmethod
    def _estimate(min_common_items):
        """Disjoint worlds of four sources, in item order, with the
        count of claims whose item has other claims to pair with."""
        plain = canonical_claims(_corpus(n_worlds=10, n_items=6))
        per_item = Counter(one.item for one in plain)
        shared = sum(n for n in per_item.values() if n > 1)
        assert 0 < shared < len(plain)
        claims = _CountingClaims(plain)
        estimate = CorrelationEstimator(
            min_common_items=min_common_items
        ).estimate(claims)
        return claims, shared, estimate

    def test_no_qualifying_pair_builds_no_claimant_table(self):
        """``min_common_items`` above any world's item count: every
        source is collected and votes, nobody is scored.  Each claim's
        item and party are read once; a claim of an item with several
        claims is read again, party and value, and a lone claim is
        not."""
        claims, shared, estimate = self._estimate(min_common_items=7)
        assert len(estimate.weights) == 40
        assert estimate.dependence == {}
        assert set(estimate.weights.values()) == {1.0}
        assert claims.passes == 1
        assert claims.reads == {
            "item": len(claims), "value": shared,
            "source_id": len(claims) + shared, "extractor_id": 0,
        }

    def test_only_shared_items_are_read_twice(self):
        """A floor below the worlds' item count scores pairs and reads
        what a floor above it does: a pair below the bar gets a tally
        and no score, and no pair of parties that share no item is
        looked at."""
        claims, shared, estimate = self._estimate(min_common_items=2)
        assert len(estimate.weights) == 40
        assert estimate.dependence
        assert all(
            left.split("/")[0] == right.split("/")[0]
            for left, right in estimate.dependence
        )
        assert claims.passes == 1
        assert claims.reads == {
            "item": len(claims), "value": shared,
            "source_id": len(claims) + shared, "extractor_id": 0,
        }


class TestCorpusSuccessor:
    """``_Corpus.replaced`` against rebuilding the corpus from scratch."""

    @staticmethod
    def _claims(item, n):
        # A third claim is the only kind "rare" extracts: its count
        # comes and goes with the items that have three.
        return [
            Claim(item, f"v{k}", f"v{k}", f"s{k}", "rare" if k == 2 else "ex")
            for k in range(n)
        ]

    def test_replaced_equals_a_rebuild(self):
        rng = random.Random(7)
        names = [("s%02d" % k, "p") for k in range(12)]
        held = {item: self._claims(item, 1 + k % 3)
                for k, item in enumerate(names[2:10:2])}
        corpus = _Corpus.of(
            ClaimSet(c for item in sorted(held) for c in held[item])
        )
        for _ in range(200):
            # Front, back, between, adjacent runs, emptied and brand-new
            # items, in one delta.
            fresh = {
                item: self._claims(item, rng.randrange(0, 4))
                for item in rng.sample(names, rng.randrange(0, 6))
            }
            held = {
                item: claims
                for item, claims in {**held, **fresh}.items()
                if claims
            }
            corpus = corpus.replaced(fresh)
            rebuilt = _Corpus.of(
                ClaimSet(c for item in sorted(held) for c in held[item])
            )
            assert corpus.claims == rebuilt.claims
            assert corpus.items == rebuilt.items
            assert corpus.counts == rebuilt.counts
            assert corpus.starts == rebuilt.starts
            assert corpus.census == rebuilt.census
            assert all(corpus.census.values())
            for item in names:
                assert corpus.claims_of(item) == held.get(item, [])
            # Any sorted selection, absent items included, comes back
            # as the maximal index runs of the items held.
            wanted = sorted(rng.sample(names, rng.randrange(0, 13)))
            spans = corpus.spans(wanted)
            assert [
                index for lo, hi in spans for index in range(lo, hi)
            ] == [
                index for index, item in enumerate(corpus.items)
                if item in wanted
            ]
            assert all(lo < hi for lo, hi in spans)
            assert all(
                ahead[0] > behind[1]
                for behind, ahead in zip(spans, spans[1:])
            )

    def test_a_region_interleaved_with_carried_components(self):
        """Two components whose items alternate in canonical order and
        a third behind them: a delta into the first re-fuses its two
        slices of the corpus and carries the others."""
        def one(subject, source, value="v", confidence=0.9):
            return ScoredTriple(
                Triple(subject, "p", Value(value)),
                Provenance(source, "ex"),
                confidence,
            )

        store = TripleStore()
        store.add_all(
            [
                one("k1", "left-a"), one("k1", "left-b", "w"),
                one("k2", "right-a"), one("k2", "right-b", "w"),
                one("k3", "left-a"), one("k3", "left-b"),
                one("k4", "right-a"),
                one("k5", "far"),
            ]
        )
        from tests.oracles.whole_store_engine import WholeStoreEngine

        oracle = WholeStoreEngine(_fusion(), store.copy())
        oracle.prime()
        engine = _fusion().begin_incremental(store)
        assert engine.components == 3
        corpus = engine._state.corpus
        assert corpus.spans([("k1", "p"), ("k3", "p")]) == [(0, 1), (2, 3)]
        delta = ClaimDelta(
            added=[one("k3", "left-a", "w", 0.4), one("k0", "left-b")]
        )
        outcome = engine.apply_delta(delta)
        assert outcome.dirty_components == 1
        assert outcome.reused_components == 2
        assert outcome.refused_claims == 6
        reference = oracle.apply_delta(delta).result
        assert engine.result.canonical_bytes() == reference.canonical_bytes()
        assert list(engine.result.truths) == list(reference.truths)


class TestMetrics:
    def test_counters_and_gauges_published(self):
        registry = MetricsRegistry()
        engine = _fusion(metrics=registry).begin_incremental(
            _corpus(n_worlds=3)
        )
        engine.apply_delta(_component_delta(engine.store))
        snapshot = registry.snapshot()
        assert snapshot.counters["incremental_primes_total"] == 1
        assert snapshot.counters["incremental_deltas_total"] == 1
        assert snapshot.counters["incremental_dirty_components"] == 1
        assert snapshot.counters["incremental_reused_verdicts"] > 0
        assert snapshot.counters["incremental_claims_added_total"] == 1
        assert snapshot.gauges["incremental_components"] == 3
        assert snapshot.histograms["incremental_delta_seconds"].count == 1

    def test_a_prime_and_a_dirty_delta_each_run_one_job(self):
        # The fuse's dispatch: a prime sends every component through
        # one MapReduce job, a delta only the ones it dirtied, and a
        # delta that dirties none runs no job at all.
        registry = MetricsRegistry()
        engine = _fusion(metrics=registry).begin_incremental(
            _corpus(n_worlds=3)
        )

        def job_counters():
            counters = registry.snapshot().counters
            return (
                counters["mapreduce_jobs_total"],
                counters["mapreduce_reduce_groups_total"],
            )

        assert job_counters() == (1, 3)
        engine.apply_delta(_component_delta(engine.store))
        assert job_counters() == (2, 4)
        engine.apply_delta(ClaimDelta())
        assert job_counters() == (2, 4)


class TestPerComponentEquivalence:
    def test_source_weights_split_like_components(self):
        """Per-component source-correlation weights equal the global
        estimate restricted to the component (no cross-component pair
        ever shares an item)."""
        store = _corpus(n_worlds=4)
        claims = canonical_claims(store)
        global_weights = CorrelationEstimator(by="source").estimate(
            claims
        ).weights
        for shard in shard_claims(claims):
            local = CorrelationEstimator(by="source").estimate(shard).weights
            for source in shard.sources():
                assert local.get(source, 1.0) == pytest.approx(
                    global_weights.get(source, 1.0)
                )
