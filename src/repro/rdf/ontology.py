"""Ontology model: classes (types), attributes (properties) and entities.

The paper follows Freebase vocabulary, where classes are called *types*
and attributes *properties*.  Key modelling points taken from the paper:

* Attributes are **functional** (single-truth: a birth date) or
  **non-functional** (multi-truth: children of a person); the fusion
  phase must treat the two differently (Sec. 3.2).
* Each class carries an entity set used by the extractors for entity
  recognition ("each class is specified as a set of representative
  entities of Freebase", Sec. 4).
* Ontology *augmentation* adds newly discovered attributes to a class;
  Table 2 counts exactly these additions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import OntologyError
from repro.rdf.triple import ValueKind


@dataclass(frozen=True, slots=True)
class Attribute:
    """An attribute (Freebase *property*) of a class.

    Parameters
    ----------
    name:
        Canonical attribute name, lower-case with spaces
        (e.g. ``"birth place"``).
    functional:
        ``True`` when the attribute admits exactly one truth per entity
        *per hierarchy chain* (the paper notes that even functional
        attributes can have several true values along a value
        hierarchy).
    value_kind:
        Coarse type of the attribute's values.
    hierarchical:
        ``True`` when values live in a value hierarchy (e.g. locations).
    """

    name: str
    functional: bool = True
    value_kind: ValueKind = ValueKind.STRING
    hierarchical: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("Attribute.name must be non-empty")


@dataclass(slots=True)
class Entity:
    """A named entity belonging to a class.

    ``aliases`` hold alternative surface forms (used by entity
    recognition over query streams and DOM text nodes).
    """

    entity_id: str
    name: str
    class_name: str
    aliases: tuple[str, ...] = ()

    def surface_forms(self) -> tuple[str, ...]:
        """The canonical name followed by all aliases."""
        return (self.name, *self.aliases)


class OntologyClass:
    """A class (Freebase *type*): named attributes plus an entity set."""

    def __init__(
        self,
        name: str,
        attributes: Iterable[Attribute] = (),
        entities: Iterable[Entity] = (),
    ) -> None:
        if not name:
            raise OntologyError("class name must be non-empty")
        self.name = name
        self._attributes: dict[str, Attribute] = {}
        self._entities: dict[str, Entity] = {}
        for attribute in attributes:
            self.add_attribute(attribute)
        for entity in entities:
            self.add_entity(entity)

    # -- attributes -----------------------------------------------------
    def add_attribute(self, attribute: Attribute) -> bool:
        """Add an attribute; returns False if the name already exists."""
        if attribute.name in self._attributes:
            return False
        self._attributes[attribute.name] = attribute
        return True

    # -- entities -------------------------------------------------------
    def add_entity(self, entity: Entity) -> None:
        if entity.class_name != self.name:
            raise OntologyError(
                f"entity {entity.entity_id!r} belongs to class "
                f"{entity.class_name!r}, not {self.name!r}"
            )
        self._entities[entity.entity_id] = entity

    @property
    def entities(self) -> tuple[Entity, ...]:
        return tuple(self._entities.values())


class Ontology:
    """A collection of classes; the schema side of a knowledge base."""

    def __init__(self, classes: Iterable[OntologyClass] = ()) -> None:
        self._classes: dict[str, OntologyClass] = {}
        for cls in classes:
            self.add_class(cls)

    def add_class(self, cls: OntologyClass) -> None:
        if cls.name in self._classes:
            raise OntologyError(f"duplicate class {cls.name!r}")
        self._classes[cls.name] = cls

    def cls(self, name: str) -> OntologyClass:
        try:
            return self._classes[name]
        except KeyError:
            raise OntologyError(f"unknown class {name!r}") from None

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(self._classes)

    def __iter__(self) -> Iterator[OntologyClass]:
        return iter(self._classes.values())

    def entity_index(self) -> dict[str, Entity]:
        """Map from every surface form (lower-cased) to its entity.

        Later classes do not override earlier ones on collision; the
        first registration wins, mirroring how a fixed reference KB
        resolves ambiguous names deterministically.
        """
        index: dict[str, Entity] = {}
        for cls in self:
            for entity in cls.entities:
                for form in entity.surface_forms():
                    index.setdefault(form.lower(), entity)
        return index
