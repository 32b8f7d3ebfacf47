"""Unit tests for store persistence."""

import pytest

from repro.errors import StoreError
from repro.rdf.io import dump_claims_tsv, load_claims_tsv
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value, ValueKind


@pytest.fixture
def store():
    s = TripleStore()
    s.add(
        ScoredTriple(
            Triple("book/1", "author", Value("Jane Doe")),
            Provenance("freebase", "kb", "book/author"),
            0.9,
        )
    )
    s.add(
        ScoredTriple(
            Triple("book/1", "price", Value("42", ValueKind.NUMBER)),
            Provenance("www.shop.com", "dom", "http://www.shop.com/p1"),
            0.35,
        )
    )
    s.add(
        ScoredTriple(
            Triple("book/2", "title", Value('tab\there "and" newline\nend')),
            Provenance("src", "webtext"),
            1.0,
        )
    )
    return s


class TestClaimsTsvRoundTrip:
    def test_roundtrip_preserves_everything(self, store, tmp_path):
        path = tmp_path / "claims.tsv"
        written = dump_claims_tsv(store, path)
        assert written == 3
        loaded = load_claims_tsv(path)
        assert len(loaded) == len(store)
        original = {
            (c.triple, c.provenance, c.confidence) for c in store.claims()
        }
        restored = {
            (c.triple, c.provenance, c.confidence) for c in loaded.claims()
        }
        assert original == restored

    def test_special_characters_survive(self, store, tmp_path):
        path = tmp_path / "claims.tsv"
        dump_claims_tsv(store, path)
        loaded = load_claims_tsv(path)
        titles = loaded.objects("book/2", "title")
        assert {v.lexical for v in titles} == {'tab\there "and" newline\nend'}

    def test_value_kinds_survive(self, store, tmp_path):
        path = tmp_path / "claims.tsv"
        dump_claims_tsv(store, path)
        loaded = load_claims_tsv(path)
        prices = loaded.objects("book/1", "price")
        assert next(iter(prices)).kind is ValueKind.NUMBER

    def test_empty_store(self, tmp_path):
        path = tmp_path / "claims.tsv"
        assert dump_claims_tsv(TripleStore(), path) == 0
        assert len(load_claims_tsv(path)) == 0

    def test_deterministic_output(self, store, tmp_path):
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        dump_claims_tsv(store, first)
        dump_claims_tsv(store, second)
        assert first.read_text() == second.read_text()


class TestClaimsTsvErrors:
    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("nope\n")
        with pytest.raises(StoreError):
            load_claims_tsv(path)

    def test_bad_field_count_rejected(self, tmp_path, store):
        path = tmp_path / "bad.tsv"
        dump_claims_tsv(store, path)
        path.write_text(path.read_text() + "only\tthree\tfields\n")
        with pytest.raises(StoreError):
            load_claims_tsv(path)

    def test_bad_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        header = path.write_text(
            "subject\tpredicate\tobject\tkind\tsource\textractor\tlocator"
            "\tconfidence\n"
            "s\tp\to\tquaternion\tsrc\tex\t\t1.0\n"
        )
        del header
        with pytest.raises(StoreError):
            load_claims_tsv(path)
