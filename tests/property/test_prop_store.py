"""Property-based tests for the triple store."""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.backend import MemoryBackend
from repro.rdf.segments import SegmentBackend
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value
from tests.oracles.linear_scan_backend import LinearScanClaims

subjects = st.sampled_from(["s1", "s2", "s3"])
predicates = st.sampled_from(["p1", "p2"])
objects = st.sampled_from(["a", "b", "c"])
sources = st.sampled_from(["x", "y"])


@st.composite
def claims(draw):
    return ScoredTriple(
        Triple(draw(subjects), draw(predicates), Value(draw(objects))),
        Provenance(draw(sources), "ex"),
        draw(st.floats(min_value=0, max_value=1)),
    )


claim_lists = st.lists(claims(), min_size=0, max_size=40)


class TestStoreInvariants:
    @given(claim_lists)
    @settings(max_examples=80)
    def test_len_equals_distinct_claim_keys(self, batch):
        store = TripleStore()
        store.add_all(batch)
        distinct = {(c.triple, c.provenance) for c in batch}
        assert len(store) == len(distinct)

    @given(claim_lists)
    @settings(max_examples=80)
    def test_match_consistent_with_contains(self, batch):
        store = TripleStore()
        store.add_all(batch)
        for triple in store.match():
            assert triple in store

    @given(claim_lists)
    @settings(max_examples=80)
    def test_indexes_agree(self, batch):
        store = TripleStore()
        store.add_all(batch)
        for triple in store.match():
            assert triple in store.match(subject=triple.subject)
            assert triple in store.match(predicate=triple.predicate)
            assert triple in store.match(obj=triple.obj)

    @given(claim_lists)
    @settings(max_examples=80)
    def test_confidence_is_max_over_duplicates(self, batch):
        store = TripleStore()
        store.add_all(batch)
        best = {}
        for claim in batch:
            key = (claim.triple, claim.provenance)
            best[key] = max(best.get(key, 0.0), claim.confidence)
        for stored in store.claims():
            assert stored.confidence == best[(stored.triple, stored.provenance)]

    @given(claim_lists)
    @settings(max_examples=80)
    def test_remove_then_absent(self, batch):
        store = TripleStore()
        store.add_all(batch)
        for triple in list(store.match())[:3]:
            store.remove(triple)
            assert triple not in store
            assert not store.claims(triple)

    @given(claim_lists, claim_lists)
    @settings(max_examples=50)
    def test_merge_is_union(self, left_batch, right_batch):
        left = TripleStore()
        left.add_all(left_batch)
        right = TripleStore()
        right.add_all(right_batch)
        left.add_all(right.claims())
        for claim in right_batch:
            assert claim.triple in left


# ----------------------------------------------------------------------
# The backend's claim-level answers against a dict-only model of them.

triples = st.builds(
    Triple, subjects, predicates, st.builds(Value, objects)
)
#: Steps on the backend under test and on the copies it hands out.
STEPS = [
    st.tuples(st.just("add"), claims()),
    st.tuples(st.just("add_all"), st.lists(claims(), max_size=6)),
    st.tuples(st.just("remove"), triples),
    # A run of retractions: absent triples, and triples listed
    # twice, among them.
    st.tuples(st.just("remove_run"), st.lists(triples, max_size=6)),
    # Retract a batch, then put one claim of each triple back.
    st.tuples(st.just("retract_readd"), st.lists(claims(), max_size=4)),
    # Remove a triple, then put one claim of it back: the key
    # moves to the end of the store *and* of its item's answers.
    st.tuples(st.just("readd"), claims()),
    st.tuples(st.just("copy"), st.none()),
    # The *same objects* again: a batch holding each claim twice,
    # then the whole batch once more.
    st.tuples(st.just("add_twice"), st.lists(claims(), max_size=4)),
    # ``b = a.copy(); b.add_all(a.claims()); a.add_all(b.claims())``
    # — copies share their claim objects, so both re-add identical
    # objects.
    st.tuples(st.just("merge_copy"), st.none()),
    # A copy of an earlier copy (of the live backend when there is
    # none yet).
    st.tuples(st.just("copy_of_copy"), st.integers(0, 7)),
    # Spill the memtable (a no-op on the memory backend).
    st.tuples(st.just("flush"), st.none()),
]
#: Writes to earlier copies: source, copy and copy's copy all write
#: after sharing.
COPY_WRITES = [
    st.tuples(
        st.just("add_to_copy"), st.tuples(st.integers(0, 7), claims())
    ),
    st.tuples(
        st.just("remove_from_copy"),
        st.tuples(st.integers(0, 7), st.lists(triples, max_size=3)),
    ),
]
operations = st.lists(st.one_of(*STEPS, *COPY_WRITES), max_size=40)
#: A segment directory's lifecycle between the steps.  Copies do not
#: write here: a lineage that flushes owns the directory's manifest
#: (and one that compacts unlinks the segments it replaced), so a
#: reopen recovers the backend's own state only while it is the one
#: writer.
lifecycle_operations = st.lists(
    st.one_of(
        *STEPS,
        st.tuples(st.sampled_from(["compact", "reopen"]), st.none()),
    ),
    max_size=40,
)
ITEMS = [(s, p) for s in subjects.elements for p in predicates.elements]
VALUES = [Value(lexical) for lexical in objects.elements]
#: All eight shapes of a ``match`` pattern, at every binding.
PATTERNS = [
    (subject, predicate, obj)
    for subject in [None, *subjects.elements]
    for predicate in [None, *predicates.elements]
    for obj in [None, *VALUES]
]


def _assert_same_triple_answers(backend, model):
    """The triple-level reads: same triples, each once, same sets.  The
    memory backend answers in claim-dict order (the model's): a pattern
    with an unbound subject walks its claim keys, one with a bound
    subject reads the subject's items one after the other, each in
    claim-dict order — so no answer depends on the hash seed."""
    ordered = isinstance(backend, MemoryBackend)
    for pattern in PATTERNS:
        found = backend.match(*pattern)
        expected = model.match(*pattern)
        assert len(found) == len(set(found))
        assert set(found) == set(expected)
        if not ordered:
            continue
        subject, predicate, obj = pattern
        if subject is None or predicate is not None:
            assert found == expected
        else:
            assert found == [
                triple
                for held in dict.fromkeys(t.predicate for t in found)
                for triple in model.match(subject, held, obj)
            ]
    assert backend.subjects() == model.subjects()
    assert backend.predicates() == model.predicates()
    for subject in subjects.elements:
        assert backend.predicates(subject) == model.predicates(subject)
    for subject, predicate in ITEMS:
        assert backend.objects(subject, predicate) == model.objects(
            subject, predicate
        )
        for value in VALUES:
            triple = Triple(subject, predicate, value)
            assert backend.contains_triple(triple) == model.contains_triple(
                triple
            )


def _assert_same_answers(backend, model):
    assert list(backend.iter_claims()) == list(model.iter_claims())
    _assert_same_triple_answers(backend, model)
    by_item = {item: model.claims_for_item(*item) for item in ITEMS}
    # A subject's predicates are those of its items with claims: the
    # answer a read that decodes every claim gives.
    for subject in subjects.elements:
        assert backend.predicates(subject) == {
            predicate for (held, predicate), found in by_item.items()
            if held == subject and found
        }
    for (subject, predicate), expected in by_item.items():
        assert backend.claims_for_item(subject, predicate) == expected
        assert backend.count_for_item(subject, predicate) == len(expected)
        for lexical in objects.elements:
            triple = Triple(subject, predicate, Value(lexical))
            assert backend.claims(triple) == model.claims(triple)


def _assert_same_losses(backend, model, retracted):
    """A ``remove`` per triple, in order: each hands back the claims the
    model's does, element for element, in store order — none for an
    absent triple or for one listed a second time."""
    for triple in retracted:
        assert backend.remove(triple) == model.remove(triple)


class TestClaimAnswersMatchTheDictModel:
    """``claims_for_item``, ``count_for_item`` (its length),
    ``claims(triple)``, ``add``'s verdict, the claims ``remove`` hands
    back and ``iter_claims`` —
    element for element, order included — and ``match`` (all eight
    patterns), ``objects``, ``subjects``, ``predicates`` and
    ``contains_triple``, under interleaved mutation, and after every
    step on every copy taken along the way: a copy shares the claim
    objects and, copy-on-write, index containers, and copies are
    written to mid-sequence like their source.  The segment backend
    runs each sequence twice: with a memtable of three claims, so
    auto-flushes fall between the steps and tombstones span several
    segments, and with one of 64, so items hold several memtable keys
    (and its memory-backend index is what answers) until a ``flush``
    step spills them.  ``batched`` replays the same interleavings with
    every insertion going through ``add_all``: it must leave what the
    model's ``add`` loop leaves, in the same ``iter_claims()`` order.
    The slow variant also compacts and reopens the directory between
    steps, at random memtable sizes and compaction thresholds."""

    @given(operations, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_interleavings_agree_element_for_element(self, ops, batched):
        self._replay(MemoryBackend(), ops, batched)

    @given(operations, st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_interleavings_agree_on_the_segment_backend(self, ops, batched):
        for memtable_limit in (3, 64):
            with tempfile.TemporaryDirectory() as scratch:
                backend = SegmentBackend(
                    scratch, memtable_limit=memtable_limit
                )
                try:
                    self._replay(backend, ops, batched)
                finally:
                    backend.close()

    @pytest.mark.slow
    @given(
        lifecycle_operations,
        st.booleans(),
        st.integers(1, 20),
        st.integers(2, 8),
    )
    @settings(max_examples=800, deadline=None)
    def test_interleavings_agree_across_compaction_and_reopen(
        self, ops, batched, memtable_limit, compact_threshold
    ):
        with tempfile.TemporaryDirectory() as scratch:
            opened = []

            def reopen():
                opened.append(
                    SegmentBackend(
                        scratch,
                        memtable_limit=memtable_limit,
                        compact_threshold=compact_threshold,
                    )
                )
                return opened[-1]

            try:
                self._replay(reopen(), ops, batched, reopen)
            finally:
                for backend in opened:
                    backend.close()

    @staticmethod
    def _replay(backend, ops, batched, reopen=None):
        model = LinearScanClaims()

        def insert(batch):
            if batched:
                backend.add_all(iter(batch))
                model.add_all(batch)
            else:
                for one in batch:
                    assert backend.add(one) == model.add(one)

        # Earlier copies, each with the model of what it must answer.
        pinned = []

        def pin(source, source_model):
            twin = LinearScanClaims()
            twin.add_all(source_model.claims())
            pinned.append((source.copy(), twin))

        for kind, payload in ops:
            if kind == "add":
                insert([payload])
            elif kind == "add_all":
                backend.add_all(iter(payload))
                model.add_all(payload)
            elif kind == "remove":
                assert backend.remove(payload) == model.remove(payload)
            elif kind == "remove_run":
                _assert_same_losses(backend, model, payload)
            elif kind == "retract_readd":
                _assert_same_losses(
                    backend, model, [one.triple for one in payload]
                )
                insert(payload)
            elif kind == "readd":
                assert backend.remove(payload.triple) == model.remove(
                    payload.triple
                )
                insert([payload])
            elif kind == "add_twice":
                backend.add_all(payload + payload)
                backend.add_all(payload)
                model.add_all(payload)
            elif kind == "merge_copy":
                other = backend.copy()
                other.add_all(backend.claims())
                backend.add_all(other.claims())
                _assert_same_answers(other, model)
            elif kind == "copy":
                pin(backend, model)
            elif kind == "copy_of_copy":
                pin(*pinned[payload % len(pinned)] if pinned
                    else (backend, model))
            elif kind == "flush":
                backend.flush()
            elif kind == "compact":
                backend.compact()
            elif kind == "reopen":
                # Unflushed writes are volatile: spill them first.
                backend.flush()
                backend = reopen()
            elif kind == "add_to_copy":
                if pinned:
                    copied, frozen = pinned[payload[0] % len(pinned)]
                    assert copied.add(payload[1]) == frozen.add(payload[1])
            else:
                assert kind == "remove_from_copy"
                if pinned:
                    copied, frozen = pinned[payload[0] % len(pinned)]
                    _assert_same_losses(copied, frozen, payload[1])
            _assert_same_answers(backend, model)
            for copied, frozen in pinned:
                _assert_same_answers(copied, frozen)
        for copied, frozen in pinned:
            # ... and what a run of retractions would take from them.
            everything = [
                Triple(subject, predicate, Value(lexical))
                for subject, predicate in ITEMS
                for lexical in objects.elements
            ]
            _assert_same_losses(copied, frozen, everything + everything[:2])
            _assert_same_answers(copied, frozen)
