"""Unit tests for the ontology model (classes, attributes, entities)."""

import pytest

from repro.errors import OntologyError
from repro.rdf.ontology import Attribute, Entity, Ontology, OntologyClass


def make_class(name="Book", entity_count=2):
    cls = OntologyClass(
        name,
        attributes=[
            Attribute("author"),
            Attribute("genre", functional=False),
        ],
    )
    for index in range(entity_count):
        cls.add_entity(
            Entity(f"{name.lower()}/{index}", f"{name} {index}", name)
        )
    return cls


class TestAttribute:
    def test_defaults(self):
        attribute = Attribute("author")
        assert attribute.functional
        assert not attribute.hierarchical

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Attribute("")


class TestEntity:
    def test_surface_forms_include_aliases(self):
        entity = Entity("e1", "The Silent River", "Book", ("Silent River",))
        assert entity.surface_forms() == ("The Silent River", "Silent River")


class TestOntologyClass:
    def test_empty_name_rejected(self):
        with pytest.raises(OntologyError):
            OntologyClass("")

    def test_add_attribute_dedupes(self):
        cls = make_class()
        assert not cls.add_attribute(Attribute("author"))
        assert cls.add_attribute(Attribute("publisher"))
        assert not cls.add_attribute(Attribute("publisher"))

    def test_entity_class_mismatch_rejected(self):
        cls = make_class()
        with pytest.raises(OntologyError):
            cls.add_entity(Entity("x", "X", "Film"))


class TestOntology:
    def test_duplicate_class_rejected(self):
        ontology = Ontology([make_class()])
        with pytest.raises(OntologyError):
            ontology.add_class(make_class())

    def test_unknown_class_rejected(self):
        with pytest.raises(OntologyError):
            Ontology().cls("Nope")

    def test_entity_index_lowercases(self):
        ontology = Ontology([make_class("Book")])
        index = ontology.entity_index()
        assert index["book 0"].entity_id == "book/0"

    def test_entity_index_first_wins_on_collision(self):
        book = OntologyClass("Book")
        book.add_entity(Entity("book/0", "Twin", "Book"))
        film = OntologyClass("Film")
        film.add_entity(Entity("film/0", "Twin", "Film"))
        ontology = Ontology([book, film])
        assert ontology.entity_index()["twin"].entity_id == "book/0"
