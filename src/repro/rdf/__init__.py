"""RDF substrate: triples, stores, ontologies, value hierarchies and the
claims TSV format.  A query is one ``TripleStore.match`` pattern."""

from repro.rdf.backend import MemoryBackend, StorageBackend
from repro.rdf.hierarchy import ValueHierarchy
from repro.rdf.io import dump_claims_tsv, load_claims_tsv
from repro.rdf.ontology import Attribute, Entity, Ontology, OntologyClass
from repro.rdf.segments import SegmentBackend, SegmentReader
from repro.rdf.store import TripleStore
from repro.rdf.triple import (
    Provenance,
    ScoredTriple,
    Triple,
    Value,
    ValueKind,
)

__all__ = [
    "Attribute",
    "dump_claims_tsv",
    "load_claims_tsv",
    "Entity",
    "MemoryBackend",
    "Ontology",
    "OntologyClass",
    "Provenance",
    "ScoredTriple",
    "SegmentBackend",
    "SegmentReader",
    "StorageBackend",
    "Triple",
    "TripleStore",
    "Value",
    "ValueHierarchy",
    "ValueKind",
]
