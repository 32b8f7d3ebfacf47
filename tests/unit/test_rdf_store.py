"""Unit tests for the indexed triple store."""

import pytest

from repro.fusion.base import ClaimSet
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value


def claim(subject, predicate, value, source="src", extractor="ex", conf=1.0):
    return ScoredTriple(
        Triple(subject, predicate, Value(value)),
        Provenance(source, extractor),
        conf,
    )


@pytest.fixture
def store():
    s = TripleStore()
    s.add(claim("france", "capital", "Paris", source="a"))
    s.add(claim("france", "capital", "Lyon", source="b"))
    s.add(claim("france", "population", "67M", source="a"))
    s.add(claim("germany", "capital", "Berlin", source="a"))
    return s


class TestAdd:
    def test_len_counts_claims(self, store):
        assert len(store) == 4

    def test_same_triple_different_source_kept(self, store):
        store.add(claim("france", "capital", "Paris", source="c"))
        assert len(store) == 5

    def test_duplicate_claim_is_noop(self, store):
        store.add(claim("france", "capital", "Paris", source="a"))
        assert len(store) == 4

    def test_duplicate_keeps_max_confidence(self):
        store = TripleStore()
        store.add(claim("s", "p", "v", conf=0.3))
        store.add(claim("s", "p", "v", conf=0.8))
        store.add(claim("s", "p", "v", conf=0.5))
        assert store.claims()[0].confidence == 0.8

    def test_contains(self, store):
        assert Triple("france", "capital", Value("Paris")) in store
        assert Triple("france", "capital", Value("Nice")) not in store


class TestMatch:
    def test_fully_bound(self, store):
        found = store.match("france", "capital", Value("Paris"))
        assert len(found) == 1

    def test_subject_only(self, store):
        assert len(store.match(subject="france")) == 3

    def test_predicate_only(self, store):
        capitals = store.match(predicate="capital")
        assert {t.subject for t in capitals} == {"france", "germany"}

    def test_object_only(self, store):
        assert len(store.match(obj=Value("Berlin"))) == 1

    def test_unbound_enumerates_distinct(self, store):
        store.add(claim("france", "capital", "Paris", source="z"))
        assert len(store.match()) == 4  # distinct triples, not claims

    def test_no_match_empty(self, store):
        assert store.match(subject="spain") == []


class TestLookups:
    def test_objects(self, store):
        assert {v.lexical for v in store.objects("france", "capital")} == {
            "Paris",
            "Lyon",
        }

    def test_subjects(self, store):
        assert store.subjects() == {"france", "germany"}

    def test_predicates_global(self, store):
        assert store.predicates() == {"capital", "population"}

    def test_predicates_of_subject(self, store):
        assert store.predicates("germany") == {"capital"}

    def test_sources_and_extractors(self, store):
        # Provenance scans are a ClaimSet question (fusion's view of
        # the same claims), not a store method.
        claims = ClaimSet.from_scored_triples(store)
        assert claims.sources() == {"a", "b"}
        assert claims.extractors() == {"ex"}

    def test_claims_for_item(self, store):
        claims = store.claims_for_item("france", "capital")
        assert len(claims) == 2

    def test_claims_of_triple(self, store):
        triple = Triple("france", "capital", Value("Paris"))
        assert len(store.claims(triple)) == 1


class TestMutation:
    def test_remove(self, store):
        removed = store.remove(Triple("france", "capital", Value("Paris")))
        assert removed == 1
        assert Triple("france", "capital", Value("Paris")) not in store
        assert len(store) == 3

    def test_remove_missing_returns_zero(self, store):
        assert store.remove(Triple("x", "y", Value("z"))) == 0

    def test_merge(self, store):
        other = TripleStore()
        other.add(claim("spain", "capital", "Madrid"))
        store.add_all(other.claims())
        assert Triple("spain", "capital", Value("Madrid")) in store

    def test_copy_independent(self, store):
        clone = store.copy()
        clone.add(claim("spain", "capital", "Madrid"))
        assert len(clone) == len(store) + 1

    def test_iteration_yields_claims(self, store):
        assert len(list(store)) == 4


class TestIndexConsistencyAfterRemoval:
    """Regression: remove() used to leave ghost entries in the
    SPO/POS/OSP indexes (empty leaf sets and empty inner dicts), so
    subjects()/predicates() reported identifiers with no claims."""

    def test_no_ghost_subject_after_full_removal(self):
        s = TripleStore()
        s.add(claim("spain", "capital", "Madrid"))
        s.remove(Triple("spain", "capital", Value("Madrid")))
        assert s.subjects() == set()
        assert s.predicates() == set()
        assert s.match() == []

    def test_sibling_entries_survive_pruning(self, store):
        store.remove(Triple("france", "capital", Value("Paris")))
        assert "france" in store.subjects()
        assert store.predicates("france") == {"capital", "population"}
        assert store.objects("france", "capital") == {Value("Lyon")}
        store.remove(Triple("france", "capital", Value("Lyon")))
        assert store.predicates("france") == {"population"}
        assert "capital" in store.predicates()  # germany still has one

    def test_interleaved_add_remove_readd_agree(self):
        s = TripleStore()
        triple = Triple("france", "capital", Value("Paris"))
        s.add(claim("france", "capital", "Paris", source="a", conf=0.9))
        s.add(claim("france", "capital", "Paris", source="b", conf=0.7))
        s.remove(triple)
        s.add(claim("france", "capital", "Paris", source="b", conf=0.4))
        # __contains__, __len__ and iteration must tell one story.
        assert triple in s
        assert len(s) == 1
        listed = list(s)
        assert len(listed) == 1
        assert listed[0].provenance.source_id == "b"
        assert s.claims(triple) == listed
        assert {scored.triple for scored in s} == {triple}

    def test_lower_confidence_readd_after_remove_sticks(self):
        # After a removal the old max-confidence entry is gone, so a
        # re-add at lower confidence must install, not be dropped by
        # the max-confidence dedup.
        s = TripleStore()
        triple = Triple("x", "p", Value("v"))
        s.add(claim("x", "p", "v", conf=0.9))
        s.remove(triple)
        s.add(claim("x", "p", "v", conf=0.2))
        assert [scored.confidence for scored in s.claims(triple)] == [0.2]

    def test_removed_value_vanishes_from_all_match_paths(self, store):
        store.remove(Triple("france", "capital", Value("Paris")))
        assert store.match(subject="france", obj=Value("Paris")) == []
        assert store.match(predicate="capital", obj=Value("Paris")) == []
        assert store.match(obj=Value("Paris")) == []


class TestBackendFacade:
    def test_default_backend_is_memory(self, store):
        from repro.rdf.backend import MemoryBackend

        assert isinstance(store.backend, MemoryBackend)
        assert store.backend.name == "memory"

    def test_snapshot_is_a_stable_list(self, store):
        frozen = store.claims()
        assert isinstance(frozen, list)
        assert len(frozen) == 4
        store.add(claim("spain", "capital", "Madrid"))
        assert len(frozen) == 4  # the list is unaffected by later adds
        assert frozen == store.claims()[:4]

    def test_iteration_is_zero_copy(self, store):
        """Regression: __iter__ used to materialize a full list of the
        store's claims on every call, which made each fusion compile
        pass O(n) in allocations.  Plain iteration must now walk the
        backend's live view without building an intermediate list."""
        unmaterialized = iter(store)
        first = next(unmaterialized)
        assert not isinstance(unmaterialized, type(iter([])))
        assert first in store.claims()

    def test_iter_claims_shares_backend_objects(self, store):
        # The objects coming out of iteration are the stored objects
        # themselves, not copies — the incremental journal's identity
        # checks (`existing is scored`) depend on this.
        via_iter = {id(scored) for scored in store}
        via_claims = {id(scored) for scored in store.claims()}
        assert via_iter == via_claims
