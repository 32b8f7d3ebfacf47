"""Unit tests for KB augmentation."""

import pytest

from repro.core.augmentation import augment_kb
from repro.extract.base import ExtractorOutput
from repro.fusion.base import Claim, ClaimSet, FusionResult
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value
from repro.synth.kb_snapshots import KbClassView, KbSnapshot


@pytest.fixture
def snapshot():
    snap = KbSnapshot("freebase", "snake")
    snap.classes["Book"] = KbClassView(
        "Book",
        schema_attributes=("book/author",),
        instance_attributes=("book/author", "book/genre"),
        entities=(),
    )
    snap.store.add(
        ScoredTriple(
            Triple("book/0001", "book/author", Value("Jane")),
            Provenance("freebase", "kb-load"),
        )
    )
    return snap


def fusion_fixture():
    result = FusionResult("knowledge-fusion")
    result.truths[("book/0001", "author")] = {"jane"}
    result.truths[("book/0001", "price")] = {"42"}
    result.belief[(("book/0001", "author"), "jane")] = 0.95
    result.belief[(("book/0001", "price"), "42")] = 0.8
    claims = ClaimSet(
        [
            Claim(("book/0001", "author"), "jane", "Jane", "x", "dom"),
            Claim(("book/0001", "price"), "42", "42", "x", "dom"),
        ]
    )
    return result, claims


class TestAugmentation:
    def _augment(self, snapshot, discovered=None):
        result, claims = fusion_fixture()
        return augment_kb(
            snapshot,
            discovered or [],
            result,
            claims,
            class_of_subject=lambda s: "Book" if s.startswith("book/") else None,
        )

    def test_new_attribute_added_to_schema_view(self, snapshot):
        output = ExtractorOutput("dom")
        record = output.add_attribute("Book", "price")
        record.confidence = 0.9
        report = self._augment(snapshot, [output])
        assert report.new_attributes == {"Book": 1}
        assert "book/price" in snapshot.classes["Book"].instance_attributes

    def test_known_attribute_not_duplicated(self, snapshot):
        output = ExtractorOutput("dom")
        output.add_attribute("Book", "genre")  # already in instance attrs
        report = self._augment(snapshot, [output])
        assert report.total_new_attributes() == 0

    def test_new_fact_attached_with_fusion_provenance(self, snapshot):
        report = self._augment(snapshot)
        assert report.new_facts == 1  # the price fact
        added = snapshot.store.claims_for_item("book/0001", "book/price")
        assert added
        assert added[0].provenance.extractor_id == "fusion"
        assert added[0].confidence == pytest.approx(0.8)

    def test_existing_fact_confirmed_not_duplicated(self, snapshot):
        report = self._augment(snapshot)
        assert report.confirmed_facts == 1  # author=jane already held
        author_claims = snapshot.store.claims_for_item(
            "book/0001", "book/author"
        )
        assert len(author_claims) == 1

    def test_subject_outside_kb_classes_ignored(self, snapshot):
        result = FusionResult("kf")
        result.truths[("film/0001", "director")] = {"someone"}
        report = augment_kb(
            snapshot, [], result, ClaimSet(),
            class_of_subject=lambda s: "Film",
        )
        assert report.new_facts == 0

    def test_lexical_form_recovered_from_claims(self, snapshot):
        self._augment(snapshot)
        added = snapshot.store.claims_for_item("book/0001", "book/price")
        assert added[0].triple.obj.lexical == "42"


class TestEntityAugmentation:
    def test_new_entities_registered(self, snapshot):
        from repro.rdf.ontology import Entity

        result, claims = fusion_fixture()
        report = augment_kb(
            snapshot, [], result, claims,
            class_of_subject=lambda s: "Book",
            new_entities=[
                Entity("new/book/0001", "Fresh Tale", "Book"),
                Entity("new/film/0001", "No Such Class", "Film"),
            ],
        )
        assert report.new_entities == 1  # Film class absent from the KB
        names = {e.name for e in snapshot.classes["Book"].entities}
        assert "Fresh Tale" in names

    def test_duplicate_entity_not_registered_twice(self, snapshot):
        from repro.rdf.ontology import Entity

        result, claims = fusion_fixture()
        entity = Entity("new/book/0001", "Fresh Tale", "Book")
        augment_kb(
            snapshot, [], result, claims,
            class_of_subject=lambda s: "Book", new_entities=[entity],
        )
        report = augment_kb(
            snapshot, [], result, claims,
            class_of_subject=lambda s: "Book", new_entities=[entity],
        )
        assert report.new_entities == 0
