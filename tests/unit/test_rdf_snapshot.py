"""Copy immutability: the invariant serving stands on.

A held ``TripleStore.copy()`` (a committed version's store) must keep
answering from the state at copy time — iteration *and* every index
lookup path — no matter how the live store mutates afterwards, on both
storage backends.
"""

import pytest

from repro.rdf.segments import SegmentBackend
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value


def claim(subject, predicate, value, source="src", extractor="ex",
          conf=0.5, locator=""):
    return ScoredTriple(
        Triple(subject, predicate, Value(value)),
        Provenance(source, extractor, locator),
        conf,
    )


CORPUS = [
    claim("france", "capital", "Paris", source="a", conf=0.9),
    claim("france", "capital", "Lyon", source="b", conf=0.4),
    claim("france", "population", "67M", source="a", conf=0.7),
    claim("germany", "capital", "Berlin", source="a", conf=0.8),
    claim("spain", "capital", "Madrid", source="c", extractor="dom"),
]


def build_store(backend_name, tmp_path):
    if backend_name == "segment":
        store = TripleStore(
            SegmentBackend(tmp_path / "segstore", memtable_limit=3)
        )
    else:
        store = TripleStore()
    store.add_all(CORPUS)
    return store


def signature(view):
    """Order-insensitive content signature of any claim iterable."""
    return sorted(
        (
            scored.triple.subject,
            scored.triple.predicate,
            scored.triple.obj.lexical,
            scored.provenance.source_id,
            scored.provenance.extractor_id,
            scored.confidence,
        )
        for scored in view
    )


def mutate_heavily(store):
    """Every mutation class: fresh adds, refreshes, removals, batches."""
    store.add(claim("italy", "capital", "Rome", source="d"))
    # Confidence refresh of an existing key (replaces the stored claim).
    store.add(claim("france", "capital", "Paris", source="a", conf=0.99))
    store.remove(Triple("germany", "capital", Value("Berlin")))
    store.add_all(
        [claim("france", "anthem", "La Marseillaise", source="a")]
    )


@pytest.mark.parametrize("backend_name", ["memory", "segment"])
class TestPinnedSnapshotImmutability:
    def test_iteration_is_frozen_at_pin_time(self, backend_name, tmp_path):
        store = build_store(backend_name, tmp_path)
        pinned = store.copy()
        before = signature(pinned)
        assert before == signature(CORPUS)

        mutate_heavily(store)

        assert signature(pinned) == before
        assert len(pinned) == len(CORPUS)
        # The live store did move.
        assert signature(store) != before

    def test_index_lookups_are_frozen_at_pin_time(
        self, backend_name, tmp_path
    ):
        store = build_store(backend_name, tmp_path)
        pinned = store.copy()
        before_match = sorted(
            (t.subject, t.predicate, t.obj.lexical)
            for t in pinned.match(predicate="capital")
        )
        before_objects = pinned.objects("france", "capital")
        before_item = signature(pinned.claims_for_item("france", "capital"))
        before_subjects = pinned.subjects()
        before_predicates = pinned.predicates("france")
        assert Triple("germany", "capital", Value("Berlin")) in pinned

        mutate_heavily(store)

        assert sorted(
            (t.subject, t.predicate, t.obj.lexical)
            for t in pinned.match(predicate="capital")
        ) == before_match
        assert pinned.objects("france", "capital") == before_objects
        assert (
            signature(pinned.claims_for_item("france", "capital"))
            == before_item
        )
        assert pinned.subjects() == before_subjects
        assert pinned.predicates("france") == before_predicates
        # Removed from the live store, still present in the pin.
        assert Triple("germany", "capital", Value("Berlin")) in pinned
        assert Triple("germany", "capital", Value("Berlin")) not in store
        # Added to the live store, absent from the pin.
        assert Triple("italy", "capital", Value("Rome")) not in pinned

    def test_confidence_refresh_does_not_leak_into_pin(
        self, backend_name, tmp_path
    ):
        store = build_store(backend_name, tmp_path)
        pinned = store.copy()
        store.add(claim("france", "capital", "Paris", source="a", conf=0.99))
        paris = [
            scored
            for scored in pinned.claims_for_item("france", "capital")
            if scored.provenance.source_id == "a"
        ]
        assert [scored.confidence for scored in paris] == [0.9]

    def test_snapshot_list_is_frozen_too(self, backend_name, tmp_path):
        store = build_store(backend_name, tmp_path)
        flat = store.claims()
        before = signature(flat)
        mutate_heavily(store)
        assert signature(flat) == before

    def test_item_answers_survive_every_mutation_of_the_live_store(
        self, backend_name, tmp_path
    ):
        """The memory backend's copies share their claim objects with
        the live store: an add, a confidence refresh, a remove and a
        remove + re-add on the live side must each leave the copy's
        ``claims_for_item`` / ``claims_for_items`` / ``claims(triple)``
        answers — and what a ``remove`` on the copy would drop — as
        they were."""
        store = build_store(backend_name, tmp_path)
        paris = Triple("france", "capital", Value("Paris"))
        lyon = Triple("france", "capital", Value("Lyon"))
        berlin = Triple("germany", "capital", Value("Berlin"))

        def answers(view):
            return (
                view.claims_for_item("france", "capital"),
                view.claims_for_item("germany", "capital"),
                view.claims_for_items(
                    [("france", "capital"), ("germany", "capital")]
                ),
                view.claims(paris),
                view.claims(lyon),
                view.claims(berlin),
            )

        held = store.copy()
        before = answers(held)
        assert [len(answer) for answer in before] == [2, 1, 2, 1, 1, 1]

        mutations = [
            lambda: store.add(
                claim("france", "capital", "Marseille", source="d")
            ),
            lambda: store.add(
                claim("france", "capital", "Paris", source="a", conf=0.99)
            ),
            lambda: store.remove(lyon),
            lambda: (
                store.remove(paris),
                store.add(claim("france", "capital", "Paris", source="z")),
            ),
            lambda: store.remove(berlin),
        ]
        for mutate in mutations:
            mutate()
            assert answers(held) == before
        # The live store did move on all of it.
        assert [len(answer) for answer in answers(store)] == [2, 0, 2, 1, 0, 0]

        if backend_name == "memory":
            # And the other way round: the copy's own mutations never
            # reach the live store (a segment directory has one
            # mutating lineage at a time).
            live = answers(store)
            assert held.remove(paris) == 1
            assert held.remove(berlin) == 1
            held.add(claim("germany", "capital", "Bonn", source="b"))
            assert answers(store) == live


class TestSegmentCopySharesWhatItDoesNotWrite:
    """``SegmentBackend.copy()`` shares the memtable's entries and the
    key filter with its source; a writer replaces an entry and rebinds
    the filter, so neither side sees the other's writes."""

    def test_refresh_and_flush_in_the_copy_leave_the_source_alone(
        self, tmp_path
    ):
        backend = SegmentBackend(tmp_path / "segstore", memtable_limit=100)
        backend.add_all(CORPUS[:3])
        backend.flush()
        backend.add_all(CORPUS[3:])
        entries = dict(backend._mem)
        key_filter = backend._key_filter
        hashes = set(key_filter)
        before = signature(backend.iter_claims())
        assert len(entries) == 2 and len(hashes) == 3

        clone = backend.copy()
        assert clone._key_filter is key_filter
        # A refresh of a memtable-resident claim, in the copy.
        assert clone.add(
            claim("germany", "capital", "Berlin", source="a", conf=0.95)
        )
        assert [
            scored.confidence
            for scored in clone.claims_for_item("germany", "capital")
        ] == [0.95]
        assert all(backend._mem[key] is entries[key] for key in entries)
        assert [
            scored.confidence
            for scored in backend.claims_for_item("germany", "capital")
        ] == [0.8]

        clone.flush()
        assert not clone._mem and len(clone._key_filter) == 5
        assert backend._key_filter is key_filter and set(key_filter) == hashes
        assert backend._mem == entries
        assert signature(backend.iter_claims()) == before
        # The source's filter still answers for the source: a claim the
        # copy flushed is new to it, a flushed one of its own is not.
        assert not backend.add(CORPUS[0])
        assert backend.add(
            claim("germany", "capital", "Berlin", source="a", conf=0.9)
        )
