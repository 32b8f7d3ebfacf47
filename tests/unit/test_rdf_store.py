"""Unit tests for the indexed triple store."""

import pytest

from repro.fusion.base import ClaimSet
from repro.rdf.backend import MemoryBackend
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value
from tests.oracles.linear_scan_backend import LinearScanClaims


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
        assert [scored.triple for scored in removed] == [
            Triple("france", "capital", Value("Paris"))
        ]
        assert Triple("france", "capital", Value("Paris")) not in store
        assert len(store) == 3

    def test_remove_missing_returns_zero(self, store):
        assert store.remove(Triple("x", "y", Value("z"))) == []

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
        assert isinstance(store.backend, MemoryBackend)

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


class TestAddAllFilesEachKeyOnce:
    """``add_all``'s fast path decides that a key is new by the claim
    dict growing.  Asking ``existing is not one`` instead takes the
    same claim object, listed twice in one batch, for a new key the
    second time, and files it twice in its item's SPO leaf.  Both paths
    run: a fresh store, and one that shares its indexes with a copy."""

    @pytest.mark.parametrize("copied", [False, True])
    def test_the_same_claim_twice_is_one_key(self, copied):
        store = TripleStore()
        if copied:
            store.copy()
        x = claim("france", "capital", "Paris", source="a", conf=0.5)
        store.add_all([x, x])
        assert len(store) == 1
        assert store.claims_for_item("france", "capital") == [x]
        assert store.match(subject="france") == [x.triple]

    @pytest.mark.parametrize("copied", [False, True])
    def test_a_refresh_in_the_batch_keeps_the_key_in_place(self, copied):
        store = TripleStore()
        if copied:
            store.copy()
        lyon = claim("france", "capital", "Lyon", source="a", conf=0.5)
        x = claim("france", "capital", "Paris", source="a", conf=0.5)
        nice = claim("france", "capital", "Nice", source="a", conf=0.5)
        higher = x.with_confidence(0.9)
        store.add_all([lyon, x, nice, higher])
        assert len(store) == 3
        assert store.claims_for_item("france", "capital") == [
            lyon, higher, nice,
        ]
        assert store.match(subject="france") == [
            lyon.triple, x.triple, nice.triple,
        ]


class _NoWalk(dict):
    """A claim dict that answers by key and refuses to be walked."""

    def _walk(self, *args):
        raise AssertionError("a read walked the whole claim dict")

    __iter__ = keys = values = items = _walk


class _NoFetch(_NoWalk):
    """A claim dict that refuses to hand out a claim as well."""

    def _fetch(self, *args):
        raise AssertionError("a count fetched a claim")

    __getitem__ = get = __contains__ = _fetch


class _ProbeCounting(dict):
    """An SPO root that counts its probes."""

    probes = 0

    def get(self, *args):
        self.probes += 1
        return super().get(*args)


class TestMemoryReadsCostTheAnswer:
    """On the memory backend an item, triple or subject read — and a
    ``remove`` — reads the item's SPO leaf and probes the claim dict by
    key; it never walks the dict, and ``count_for_item`` does not even
    probe it.  Counts, not time, as in
    ``tests/unit/test_rdf_segments.py::TestReadsCostTheAnswer``: here
    the count of whole-store walks, which must be zero.  The answers
    must still be the dict model's, element for element."""

    @staticmethod
    def _corpus():
        # 250 subjects x 2 predicates x 4 values, a second source on
        # every third triple.
        first = [
            claim(f"s{i // 8:03d}", f"p{i % 2}", f"v{(i // 2) % 4}",
                  source="a", conf=0.5 + (i % 5) / 10)
            for i in range(2000)
        ]
        return first + [
            ScoredTriple(one.triple, Provenance("b", "ex"), 0.4)
            for one in first[::3]
        ]

    def test_item_reads_and_removes_never_walk_the_claim_dict(self):
        corpus = self._corpus()
        live = MemoryBackend()
        live.add_all(corpus)
        # Refreshes, and keys removed then re-added (to their leaf's
        # end), so the leaves are not plain insertion order.
        churn = [one.with_confidence(1.0) for one in corpus[5:400:5]]
        moved = [one.triple for one in corpus[:300:11]]
        live.add_all(churn)
        for triple in moved:
            live.remove(triple)
        back = [
            ScoredTriple(triple, Provenance("c", "ex"), 0.6)
            for triple in moved
        ]
        live.add_all(back)
        held = live.copy()
        assert len(held) >= 2000

        probes = [
            corpus[0].triple,  # a second source
            corpus[1].triple,
            corpus[10].triple,  # refreshed
            moved[3],  # removed, then back under a new source
            Triple("s001", "p0", Value("v-none")),  # absent value
            Triple("s-none", "p0", Value("v0")),  # absent subject
        ]
        for backend in (live, held):
            model = LinearScanClaims()
            model.add_all(backend.claims())
            backend._claims = _NoWalk(backend._claims)
            self._assert_answers_without_walking(backend, model, probes)

    @staticmethod
    def _assert_answers_without_walking(backend, model, probes):
        items = list(dict.fromkeys(triple.item for triple in probes))

        def same_reads():
            for subject, predicate in items:
                assert backend.claims_for_item(
                    subject, predicate
                ) == model.claims_for_item(subject, predicate)
                assert backend.objects(
                    subject, predicate
                ) == model.objects(subject, predicate)
                assert backend.match(
                    subject=subject, predicate=predicate
                ) == model.match(subject, predicate)
                assert set(backend.match(subject=subject)) == set(
                    model.match(subject)
                )
            for triple in probes:
                assert backend.claims(triple) == model.claims(triple)
                assert backend.contains_triple(
                    triple
                ) == model.contains_triple(triple)

        def same_counts():
            # One SPO probe, one leaf, no claim fetched.
            claims, spo = backend._claims, backend._spo
            backend._claims = _NoFetch()
            for subject, predicate in items:
                backend._spo = _ProbeCounting(spo)
                assert backend.count_for_item(subject, predicate) == len(
                    model.claims_for_item(subject, predicate)
                )
                assert backend._spo.probes == 1
            backend._claims, backend._spo = claims, spo

        same_reads()
        same_counts()
        assert backend.remove(probes[0]) == model.remove(probes[0])
        assert backend.remove(probes[-1]) == model.remove(probes[-1]) == []
        # A triple removed twice has nothing left to lose the second time.
        retracted = probes[1:] + probes[1:2]
        lost = [backend.remove(triple) for triple in retracted]
        assert lost == [model.remove(triple) for triple in retracted]
        assert sum(map(len, lost)) > 0 and lost[-1] == []
        same_reads()
        same_counts()
        assert len(backend) == len(model)
