"""Core RDF data model: values, triples, provenance and scored extractions.

The paper represents actionable knowledge as RDF triples
``(subject, predicate, object)`` and attaches a confidence score plus
provenance (which source, which extractor, which page) to every
extracted triple.  This module defines those records.

Design notes
------------
* Triples are immutable and hashable so they can key dictionaries and
  live in sets during fusion.
* Values are lightweight typed literals.  The paper's value hierarchy
  (e.g. ``Adelaide -> South Australia -> Australia``) is modelled
  separately in :mod:`repro.rdf.hierarchy`; a :class:`Value` only knows
  its lexical form and kind.
* ``Provenance`` distinguishes the *Web source* (site or KB that stated
  the fact) from the *extractor* (the program that read it), because the
  paper's fusion phase reasons about correlations among both.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ValueKind(enum.Enum):
    """Coarse type of a triple object."""

    STRING = "string"
    NUMBER = "number"
    DATE = "date"
    ENTITY = "entity"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, slots=True)
class Value:
    """A typed literal appearing as the object of a triple.

    Parameters
    ----------
    lexical:
        The surface form, already whitespace-normalised.
    kind:
        Coarse type used by fusion when grouping comparable values.
    """

    lexical: str
    kind: ValueKind = ValueKind.STRING

    def __post_init__(self) -> None:
        if not self.lexical:
            raise ValueError("Value.lexical must be a non-empty string")

    def __str__(self) -> str:
        return self.lexical

    @staticmethod
    def string(lexical: str) -> "Value":
        """Convenience constructor for a plain string literal."""
        return Value(lexical, ValueKind.STRING)


@dataclass(frozen=True, slots=True)
class Triple:
    """An RDF triple ``(subject, predicate, object)``.

    Subjects and predicates are identifiers (entity ids and attribute
    names); the object is a typed :class:`Value`.
    """

    subject: str
    predicate: str
    obj: Value

    def __post_init__(self) -> None:
        if not self.subject:
            raise ValueError("Triple.subject must be non-empty")
        if not self.predicate:
            raise ValueError("Triple.predicate must be non-empty")

    @property
    def item(self) -> tuple[str, str]:
        """The *data item* this triple claims a value for.

        Fusion groups claims by data item: the pair
        ``(subject, predicate)``, e.g. ``("Barack Obama", "profession")``.
        """
        return (self.subject, self.predicate)

    def __str__(self) -> str:
        return f"({self.subject}, {self.predicate}, {self.obj.lexical})"


@dataclass(frozen=True, slots=True)
class Provenance:
    """Where an extraction came from.

    Parameters
    ----------
    source_id:
        The Web source or KB that asserted the fact (e.g. a website
        hostname, ``"freebase"``).
    extractor_id:
        The extractor program that produced the triple (e.g.
        ``"dom"``, ``"querystream"``).
    locator:
        Finer-granularity provenance: a page URL, query-record id, or
        KB key.  Optional; empty string when unknown.
    """

    source_id: str
    extractor_id: str
    locator: str = ""

    def __post_init__(self) -> None:
        if not self.source_id:
            raise ValueError("Provenance.source_id must be non-empty")
        if not self.extractor_id:
            raise ValueError("Provenance.extractor_id must be non-empty")


@dataclass(frozen=True, slots=True)
class ScoredTriple:
    """A triple plus its provenance and extraction confidence.

    The confidence score in ``[0, 1]`` follows the paper's "unified
    criterion" (Sec. 3.1); it is computed by
    :class:`repro.core.confidence.ConfidenceScorer` and consumed by the
    confidence-aware fusion methods.
    """

    triple: Triple
    provenance: Provenance
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(
                f"confidence must be within [0, 1], got {self.confidence!r}"
            )

    def with_confidence(self, confidence: float) -> "ScoredTriple":
        """Return a copy carrying a new confidence score."""
        return ScoredTriple(self.triple, self.provenance, confidence)
