"""Seeded replay property: delta-apply is byte-identical to full
re-fusion.

For each seed, a synthetic claim stream is split at random into a base
corpus plus a sequence of deltas (additions, retractions and re-adds,
all drawn by a seeded RNG in :mod:`repro.synth.deltas`).  An
:class:`IncrementalFusion` primed on the base then applies each delta;
after every step its merged result must be byte-identical — via
:meth:`FusionResult.canonical_bytes` at ``tolerance=0`` — to a fresh
full fusion of a reference store journalled with the same deltas.

A second stream runs over *many* components and scripts every delta
shape that moves a component boundary (merge, split, new and vanishing
components, in-place refresh, no-op, emptied item, a second extractor
coming and going, extractor-weight shift); there the engine is compared
step by step — bytes, accounting, truth order — with the whole-store
engine it replaced (``tests/oracles``) and with a cold prime, on both
backends, and again under a functional constraint that rebinds.

At every version of both streams the read index the engine patched
answers ``top_entities`` and ``scan_predicate`` as the cold build of
``tests/oracles/read_index.py`` does, with ``==``: floats, ties and
order.  The many-component stream holds a subject whose items lie in
every component, in a truths order that is not their sorted order.
"""

import random

import pytest

from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.incremental import ClaimDelta, DeltaJournal, canonical_claims
from repro.incremental import engine as engine_mod
from repro.rdf.segments import SegmentBackend
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value
from repro.serving.query import KBReader
from repro.serving.version import KBVersion
from repro.synth.claims import ClaimWorldConfig, generate_claim_world
from repro.synth.deltas import (
    DeltaStreamConfig,
    generate_delta_stream,
    scored_from_claims,
)
from tests.oracles import read_index as read_index_oracle
from tests.oracles.whole_store_engine import WholeStoreEngine


def _fusion(**kwargs):
    return KnowledgeFusion(tolerance=0.0, max_iterations=8, **kwargs)


def _assert_reads_match_the_oracle(engine, where):
    """The engine's read index answers every ``top_entities`` and
    ``scan_predicate`` read as the cold oracle's walk of its result."""
    result = engine.result
    reader = KBReader(
        KBVersion(
            version_id=0, sequence=engine.sequence, store=engine.store,
            result=result, read_index=engine.read_index,
        )
    )
    ranking = read_index_oracle.ranking(result)
    for k in (1, 10, len(ranking)):
        assert reader.top_entities(k) == [
            (subject, score) for score, subject in ranking[:k]
        ], f"{where}: top_entities({k})"
    holders = read_index_oracle.by_predicate(result)
    for predicate in sorted({item[1] for item in result.truths}):
        expected = holders.get(predicate, [])
        for limit in (None, 1):
            views = reader.scan_predicate(predicate, limit=limit)
            assert [view.subject for view in views] == (
                expected if limit is None else expected[:limit]
            ), f"{where}: scan_predicate({predicate!r}, limit={limit})"


def _stream(seed, parts=3):
    world = generate_claim_world(
        ClaimWorldConfig(seed=seed, n_items=10, n_sources=5)
    )
    scored = scored_from_claims(world.claims)
    return generate_delta_stream(
        scored,
        DeltaStreamConfig(seed=seed, parts=parts),
    )


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_replayed_splits_stay_byte_identical(seed):
    base, deltas = _stream(seed)
    assert len(deltas) == 3

    base_store = TripleStore()
    base_store.add_all(base)
    reference_store = base_store.copy()
    reference_journal = DeltaJournal(reference_store)

    engine = _fusion().begin_incremental(base_store)
    assert (
        engine.result.canonical_bytes()
        == _fusion().fuse(canonical_claims(reference_store)).canonical_bytes()
    )
    _assert_reads_match_the_oracle(engine, f"seed {seed}: prime")

    for index, delta in enumerate(deltas, start=1):
        outcome = engine.apply_delta(delta)
        reference_journal.apply(delta)
        reference = _fusion().fuse(canonical_claims(reference_store))
        assert outcome.sequence == index
        assert (
            outcome.result.canonical_bytes() == reference.canonical_bytes()
        ), f"seed {seed}: delta {index} diverged from full re-fusion"
        _assert_reads_match_the_oracle(engine, f"seed {seed}: delta {index}")


@pytest.mark.parametrize("seed", [7, 19])
def test_split_position_is_irrelevant(seed):
    """Base/delta boundary placement never changes the final verdicts:
    every split of the same stream converges to the same bytes."""
    finals = []
    for base_fraction in (0.3, 0.7):
        world = generate_claim_world(
            ClaimWorldConfig(seed=seed, n_items=8, n_sources=4)
        )
        scored = scored_from_claims(world.claims)
        base, deltas = generate_delta_stream(
            scored,
            DeltaStreamConfig(
                seed=seed,
                parts=2,
                base_fraction=base_fraction,
                retract_fraction=0.0,  # keep the final claim set equal
            ),
        )
        store = TripleStore()
        store.add_all(base)
        engine = _fusion().begin_incremental(store)
        for delta in deltas:
            engine.apply_delta(delta)
        finals.append(engine.result.canonical_bytes())
    assert finals[0] == finals[1]


def test_stream_generator_is_deterministic():
    first = _stream(23)
    second = _stream(23)
    assert [s.triple for s in first[0]] == [s.triple for s in second[0]]
    for delta_a, delta_b in zip(first[1], second[1]):
        assert [s.triple for s in delta_a.added] == [
            s.triple for s in delta_b.added
        ]
        assert delta_a.retracted == delta_b.retracted


# ----------------------------------------------------------------------
# Region-local re-fusion over many components.

def _prefixed(scored, prefix):
    return [
        ScoredTriple(
            Triple(
                prefix + one.triple.subject,
                one.triple.predicate,
                one.triple.obj,
            ),
            Provenance(
                prefix + one.provenance.source_id,
                one.provenance.extractor_id,
                one.provenance.locator,
            ),
            # Below 1.0, so a later delta can refresh it upwards.
            one.confidence * 0.8,
        )
        for one in scored
    ]


def _scored(subject, predicate, value, source, extractor="synthetic",
            confidence=0.7):
    return ScoredTriple(
        Triple(subject, predicate, Value(value)),
        Provenance(source, extractor),
        confidence,
    )


def _many_component_stream(seed, n_worlds=9, truths_per_item=1):
    """(base, [(label, delta)]) over ``n_worlds`` disjoint components.

    Seeded per-world add / retract / re-add deltas interleaved
    round-robin, with the boundary-moving shapes scripted in between.
    """
    rng = random.Random(seed)
    base, streams = [], []
    for index in range(n_worlds):
        world = generate_claim_world(
            ClaimWorldConfig(
                seed=seed * 100 + index, n_items=6, n_sources=4,
                truths_per_item=truths_per_item,
            )
        )
        world_base, world_deltas = generate_delta_stream(
            _prefixed(scored_from_claims(world.claims), f"w{index}/"),
            DeltaStreamConfig(seed=seed * 100 + index, parts=2),
        )
        base.extend(world_base)
        streams.append(world_deltas)
    # A subject with an item in every component.  The first
    # component begins before it (at "a/anchor") and holds its last
    # predicate, so its truths order is not its sorted order.
    base.append(_scored("a/anchor", "attr", "anchor", "w0/source00"))
    for index in range(n_worlds):
        base.append(
            _scored(
                "m/spanning", f"attr{n_worlds - index}", f"v{index}",
                f"w{index}/source00",
            )
        )
    seeded = [
        ("seeded", stream[part]) for part in range(2) for stream in streams
    ]
    rng.shuffle(seeded)
    retracted = {
        triple for _label, delta in seeded for triple in delta.retracted
    }

    def item_of(world):
        return rng.choice(
            sorted(
                {
                    one.triple.item
                    for one in base
                    if one.triple.subject.startswith(f"w{world}/")
                }
            )
        )

    def claim_of(world):
        """A base claim no seeded delta ever retracts."""
        return rng.choice(
            [
                one
                for one in base
                if one.triple.subject.startswith(f"w{world}/")
                and one.triple not in retracted
            ]
        )

    left, right = rng.sample(range(n_worlds), 2)
    bridged = item_of(left)
    bridge = _scored(*bridged, "bridge-value", f"w{right}/source00")
    lonely = _scored("zz/lonely", "attr", "only-claim", "zz/source")
    refreshed = claim_of(rng.randrange(n_worlds))
    emptied = item_of(rng.randrange(n_worlds))
    # The only claim of a second extractor: its arrival and its
    # retraction each move the census across two extractors.
    seconded = rng.randrange(n_worlds)
    second = _scored(
        *item_of(seconded), "second-opinion", f"w{seconded}/source00",
        "second",
    )
    # Two new extractors on three items of three components: "echo"
    # repeats what "synthetic" says there, "dissent" says otherwise —
    # the (echo, synthetic) pair turns strongly dependent and every
    # extractor weight moves.
    shift = []
    for world in rng.sample(range(n_worlds), 3):
        said = claim_of(world)
        subject, predicate = said.triple.item
        shift.append(
            _scored(
                subject, predicate, said.triple.obj.lexical,
                f"w{world}/echo-source", "echo",
            )
        )
        shift.append(
            _scored(
                subject, predicate, "dissenting-value",
                f"w{world}/dissent-source", "dissent",
            )
        )
    # A new predicate of the spanning subject, in one component.
    spanned = _scored(
        "m/spanning", "attr0", "late", f"w{rng.randrange(n_worlds)}/source01"
    )

    scripted = [
        ("merge", ClaimDelta(added=[bridge])),
        ("split", ClaimDelta(retracted=[bridge.triple])),
        ("new-component", ClaimDelta(added=[lonely])),
        ("last-claim", ClaimDelta(retracted=[lonely.triple])),
        (
            "refresh",
            ClaimDelta(added=[refreshed.with_confidence(1.0)]),
        ),
        (
            "noop",
            ClaimDelta(
                added=[refreshed.with_confidence(0.01)],
                retracted=[Triple("nobody", "said", Value("this"))],
            ),
        ),
        (
            "item-emptied",
            ClaimDelta(
                retracted=sorted(
                    {
                        one.triple
                        for one in base
                        if one.triple.item == emptied
                    },
                    key=str,
                )
            ),
        ),
        ("second-extractor", ClaimDelta(added=[second])),
        ("second-extractor-gone", ClaimDelta(retracted=[second.triple])),
        ("spanning-item-added", ClaimDelta(added=[spanned])),
        ("spanning-item-gone", ClaimDelta(retracted=[spanned.triple])),
        ("weight-shift", ClaimDelta(added=shift)),
        # The same shapes again, now under non-trivial weights.
        ("merge", ClaimDelta(added=[bridge])),
        ("split", ClaimDelta(retracted=[bridge.triple])),
    ]
    # Scripted deltas keep their order; seeded ones fall in between.
    deltas = []
    for step in scripted:
        deltas.extend(seeded[:2])
        del seeded[:2]
        deltas.append(step)
    return base, deltas + seeded


def _accounting(outcome):
    return (
        outcome.components,
        outcome.dirty_components,
        outcome.reused_components,
        outcome.reused_verdicts,
        outcome.refused_claims,
        outcome.degenerate,
    )


@pytest.mark.parametrize("backend_name", ["memory", "segment"])
@pytest.mark.parametrize("seed", [2, 17])
def test_region_refusion_equals_whole_store_engine(
    seed, backend_name, tmp_path, monkeypatch
):
    _replay_against_whole_store(
        seed, backend_name, None, tmp_path, monkeypatch
    )


@pytest.mark.parametrize("backend_name", ["memory", "segment"])
@pytest.mark.parametrize("seed", [2, 17])
def test_region_refusion_under_a_rebinding_functional_constraint(
    seed, backend_name, tmp_path, monkeypatch
):
    """Every item functional: the constraint cuts the two-truth
    verdicts down, and a delta's merge keeps the other components'
    cuts as they were."""
    _replay_against_whole_store(
        seed, backend_name, lambda predicate: True, tmp_path, monkeypatch
    )


def _replay_against_whole_store(
    seed, backend_name, functional_of, tmp_path, monkeypatch
):
    # Two truths an item give the functional constraint verdicts to
    # cut down.
    base, deltas = _many_component_stream(
        seed, truths_per_item=1 if functional_of is None else 2
    )
    if backend_name == "segment":
        store = TripleStore(
            SegmentBackend(tmp_path / "seg", memtable_limit=9)
        )
    else:
        store = TripleStore()
    store.add_all(base)
    oracle_store = TripleStore()
    oracle_store.add_all(base)

    engine = _fusion(functional_of=functional_of).begin_incremental(store)
    oracle = WholeStoreEngine(
        _fusion(functional_of=functional_of), oracle_store
    )
    oracle.prime()
    assert list(engine.result.truths) == list(oracle.result.truths)
    _assert_reads_match_the_oracle(engine, f"seed {seed}: prime")

    # Items whose reweighted runs a delta compares with the committed
    # ones: a component's dirty items, or all of them after a weight
    # shift, wherever a committed entry has its sources and items.
    compared = []
    same_claims = engine_mod._same_claims
    monkeypatch.setattr(
        engine_mod, "_same_claims",
        lambda now, before: compared.extend(
            dict.fromkeys(claim.item for claim in now)
        ) or same_claims(now, before),
    )

    seen = set()
    rebound = 0
    before_components = engine.components
    for label, delta in deltas:
        compared.clear()
        committed = engine._state
        outcome = engine.apply_delta(delta)
        expected = oracle.apply_delta(delta)
        where = f"seed {seed}, {label} delta {outcome.sequence}"
        shifted = (
            engine._state.extractor_weights != committed.extractor_weights
        )
        held_items = {entry.sources: entry.items for entry in committed.entries}
        assert sorted(compared) == sorted(
            item
            for entry in engine._state.entries
            if held_items.get(entry.sources) == entry.items
            for item in entry.items
            if shifted or item in outcome.receipt.dirty_items
        ), where
        assert _accounting(outcome) == _accounting(expected), where
        assert (
            outcome.result.canonical_bytes()
            == expected.result.canonical_bytes()
        ), where
        assert list(outcome.result.truths) == list(
            expected.result.truths
        ), where
        assert (
            outcome.receipt.to_json_dict()
            == expected.receipt.to_json_dict()
        ), where
        assert list(engine.claims) == list(
            canonical_claims(engine.store)
        ), where
        _assert_reads_match_the_oracle(engine, where)

        cold_store = TripleStore()
        cold_store.add_all(engine.store.claims())
        cold = _fusion(functional_of=functional_of).begin_incremental(
            cold_store
        )
        assert (
            cold.result.canonical_bytes()
            == outcome.result.canonical_bytes()
        ), where
        assert list(cold.result.truths) == list(outcome.result.truths), where
        assert cold.components == outcome.components, where

        # The scripted shapes did what their names say.
        if label == "merge":
            assert outcome.components == before_components - 1, where
        elif label in ("split", "new-component"):
            assert outcome.components == before_components + 1, where
        elif label == "last-claim":
            assert outcome.components == before_components - 1, where
            assert outcome.dirty_components == 0, where
        elif label == "noop":
            assert outcome.dirty_components == 0, where
        elif label == "refresh":
            assert outcome.dirty_components == 1, where
        elif label.startswith("second-extractor"):
            # The census crossed two extractors: the weights' keys moved
            # (their values did not, so the components are reused).
            assert sorted(engine._state.extractor_weights) == (
                ["second", "synthetic"] if label == "second-extractor"
                else ["synthetic"]
            ), where
            assert sorted(compared) == engine.claims.items(), where
        elif label == "weight-shift":
            assert shifted, where
            # On single-truth worlds the echo moves every weight.
            if functional_of is None:
                assert outcome.degenerate, where
        if label not in ("seeded", "weight-shift"):
            assert not outcome.degenerate, where
        seen.add(label)
        before_components = outcome.components
        rebound = max(rebound, len(engine._state.merged.rebound))
    assert seen >= {
        "seeded", "merge", "split", "new-component", "last-claim",
        "refresh", "noop", "item-emptied", "second-extractor",
        "second-extractor-gone", "spanning-item-added",
        "spanning-item-gone", "weight-shift",
    }
    # The constraint rebound verdicts the overlay had to carry.
    assert (rebound > 0) == (functional_of is not None)
