"""Unit tests for the RDF triple/value/provenance data model."""

import pytest

from repro.rdf.triple import (
    Provenance,
    ScoredTriple,
    Triple,
    Value,
    ValueKind,
)


class TestValue:
    def test_string_constructor(self):
        value = Value.string("Adelaide")
        assert value.lexical == "Adelaide"
        assert value.kind is ValueKind.STRING

    def test_empty_lexical_rejected(self):
        with pytest.raises(ValueError):
            Value("")

    def test_equality_and_hash(self):
        assert Value("x") == Value("x")
        assert hash(Value("x")) == hash(Value("x"))
        assert Value("x") != Value("x", ValueKind.NUMBER)

    def test_str(self):
        assert str(Value("Paris")) == "Paris"


class TestTriple:
    def test_item_groups_subject_predicate(self):
        triple = Triple("e1", "capital", Value("Paris"))
        assert triple.item == ("e1", "capital")

    def test_empty_subject_rejected(self):
        with pytest.raises(ValueError):
            Triple("", "p", Value("v"))

    def test_empty_predicate_rejected(self):
        with pytest.raises(ValueError):
            Triple("s", "", Value("v"))

    def test_str_renders_parenthesised(self):
        triple = Triple("s", "p", Value("v"))
        assert str(triple) == "(s, p, v)"

    def test_hashable(self):
        assert len({Triple("s", "p", Value("v")), Triple("s", "p", Value("v"))}) == 1


class TestProvenance:
    def test_requires_source(self):
        with pytest.raises(ValueError):
            Provenance("", "dom")

    def test_requires_extractor(self):
        with pytest.raises(ValueError):
            Provenance("site", "")

    def test_locator_optional(self):
        assert Provenance("site", "dom").locator == ""


class TestScoredTriple:
    def _scored(self, confidence=0.5):
        return ScoredTriple(
            Triple("s", "p", Value("v")), Provenance("src", "ex"), confidence
        )

    def test_confidence_bounds(self):
        with pytest.raises(ValueError):
            self._scored(1.5)
        with pytest.raises(ValueError):
            self._scored(-0.1)

    def test_with_confidence_copies(self):
        original = self._scored(0.5)
        updated = original.with_confidence(0.9)
        assert updated.confidence == 0.9
        assert original.confidence == 0.5
        assert updated.triple is original.triple
