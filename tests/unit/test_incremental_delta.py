"""Unit tests for the delta model and its JSON wire format."""

import pytest

from repro.errors import DeltaError
from repro.incremental import (
    ClaimDelta,
    DeltaJournal,
    delta_from_json_dict,
    delta_to_json_dict,
    load_delta,
    save_delta,
)
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value


def scored(subject, predicate, value, source="src", extractor="ex", conf=0.9):
    return ScoredTriple(
        Triple(subject, predicate, Value(value)),
        Provenance(source, extractor, f"loc:{subject}"),
        conf,
    )


@pytest.fixture
def delta():
    return ClaimDelta(
        added=[
            scored("country/au", "capital", "Canberra"),
            scored("country/au", "capital", "Sydney", source="bad-site"),
        ],
        retracted=[Triple("country/nz", "capital", Value("Auckland"))],
        label="crawl 2026-08-06",
    )


class TestClaimDelta:
    def test_empty(self):
        assert ClaimDelta().is_empty()

    def test_not_empty(self, delta):
        assert not delta.is_empty()

    def test_items_union_of_both_sides(self, delta):
        assert delta.items() == {
            ("country/au", "capital"),
            ("country/nz", "capital"),
        }

    def test_validate_accepts_well_formed(self, delta):
        delta.validate()

    def test_validate_rejects_raw_triple_addition(self):
        bad = ClaimDelta(added=[Triple("s", "p", Value("v"))])
        with pytest.raises(DeltaError):
            bad.validate()

    def test_validate_rejects_scored_retraction(self):
        bad = ClaimDelta(retracted=[scored("s", "p", "v")])
        with pytest.raises(DeltaError):
            bad.validate()


class TestJsonWireFormat:
    def test_round_trip(self, delta):
        payload = delta_to_json_dict(delta)
        back = delta_from_json_dict(payload)
        assert back.label == delta.label
        assert [s.triple for s in back.added] == [s.triple for s in delta.added]
        assert [s.provenance for s in back.added] == [
            s.provenance for s in delta.added
        ]
        assert [s.confidence for s in back.added] == [
            s.confidence for s in delta.added
        ]
        assert back.retracted == delta.retracted

    def test_file_round_trip(self, delta, tmp_path):
        path = tmp_path / "delta.json"
        save_delta(delta, str(path))
        back = load_delta(str(path))
        assert delta_to_json_dict(back) == delta_to_json_dict(delta)

    def test_non_dict_document_rejected(self):
        with pytest.raises(DeltaError):
            delta_from_json_dict(["not", "a", "delta"])

    def test_missing_subject_rejected(self):
        with pytest.raises(DeltaError):
            delta_from_json_dict(
                {"added": [{"predicate": "p", "object": "v",
                            "source": "s", "extractor": "e"}]}
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(DeltaError):
            delta_from_json_dict(
                {"retracted": [{"subject": "s", "predicate": "p",
                                "object": "v", "kind": "hologram"}]}
            )

    def test_bad_confidence_rejected(self):
        with pytest.raises(DeltaError):
            delta_from_json_dict(
                {"added": [{"subject": "s", "predicate": "p", "object": "v",
                            "source": "a", "extractor": "e",
                            "confidence": "plenty"}]}
            )

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DeltaError):
            load_delta(str(tmp_path / "nope.json"))

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DeltaError):
            load_delta(str(path))


class TestDeltaJournal:
    def test_receipt_accounting(self):
        store = TripleStore()
        store.add(scored("france", "capital", "Paris", source="a"))
        store.add(scored("france", "capital", "Paris", source="b"))
        journal = DeltaJournal(store)
        receipt = journal.apply(
            ClaimDelta(
                added=[
                    scored("france", "capital", "Lyon", source="c"),
                    # Exact duplicate of an existing claim — a no-op.
                    scored("france", "capital", "Paris", source="a"),
                ],
                retracted=[
                    Triple("france", "capital", Value("Paris")),
                    Triple("mars", "capital", Value("Olympus")),
                ],
                label="fix",
            )
        )
        assert receipt.sequence == 0
        assert receipt.label == "fix"
        # Paris removed across both provenances, then re-added by "a".
        assert receipt.removed_claims == 2
        assert receipt.missing_retractions == 1
        assert receipt.added == 2
        assert receipt.noop_additions == 0
        assert receipt.dirty_items == {("france", "capital")}
        assert receipt.dirty_sources == {"a", "b", "c"}

    def test_retractions_apply_before_additions(self):
        store = TripleStore()
        store.add(scored("x", "p", "old"))
        journal = DeltaJournal(store)
        journal.apply(
            ClaimDelta(
                added=[scored("x", "p", "new")],
                retracted=[Triple("x", "p", Value("old"))],
            )
        )
        assert Triple("x", "p", Value("old")) not in store
        assert Triple("x", "p", Value("new")) in store

    def test_duplicate_addition_is_noop(self):
        store = TripleStore()
        store.add(scored("x", "p", "v", conf=0.9))
        receipt = DeltaJournal(store).apply(
            ClaimDelta(added=[scored("x", "p", "v", conf=0.5)])
        )
        assert receipt.added == 0
        assert receipt.noop_additions == 1
        # Dirty anyway: the journal cannot know fusion ignores it.
        assert receipt.dirty_items == {("x", "p")}

    def test_receipt_json_sorted(self):
        store = TripleStore()
        journal = DeltaJournal(store)
        receipt = journal.apply(
            ClaimDelta(added=[scored("b", "p", "v"), scored("a", "p", "v")])
        )
        payload = receipt.to_json_dict()
        assert list(payload["dirty_items"]) == [("a", "p"), ("b", "p")]
        assert payload["sequence"] == 0
