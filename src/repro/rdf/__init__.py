"""RDF substrate: triples, stores, ontologies and value hierarchies."""

from repro.rdf.backend import MemoryBackend, StorageBackend
from repro.rdf.hierarchy import ValueHierarchy
from repro.rdf.io import dump_claims_tsv, dump_ntriples, load_claims_tsv
from repro.rdf.ontology import Attribute, Entity, Ontology, OntologyClass
from repro.rdf.query import GraphQuery, TriplePattern, Var, select
from repro.rdf.segments import SegmentBackend, SegmentReader
from repro.rdf.store import TripleStore
from repro.rdf.triple import (
    Provenance,
    ScoredTriple,
    Triple,
    Value,
    ValueKind,
    distinct_triples,
    group_by_item,
)

__all__ = [
    "Attribute",
    "GraphQuery",
    "TriplePattern",
    "Var",
    "dump_claims_tsv",
    "dump_ntriples",
    "load_claims_tsv",
    "select",
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
    "distinct_triples",
    "group_by_item",
]
