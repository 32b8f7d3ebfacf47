"""Unit tests for the query-stream extractor."""

import pytest

from repro.extract.querystream import (
    QueryStreamConfig,
    QueryStreamExtractor,
    _strip_query_tail,
)
from repro.rdf.ontology import Entity
from repro.synth.querylog import QueryRecord
from repro.textproc.tokenize import tokenize_words


def make_extractor(config=None):
    entities = {
        "france": Entity("country/1", "France", "Country"),
        "the silent river": Entity("book/1", "The Silent River", "Book"),
        "silent river": Entity("book/1", "The Silent River", "Book"),
    }
    return QueryStreamExtractor(entities, config)


def records(*texts):
    return [QueryRecord(i, text) for i, text in enumerate(texts)]


class TestStripTail:
    def test_strips_punctuation(self):
        assert _strip_query_tail(tokenize_words("capital of france?")) == [
            "capital", "of", "france",
        ]

    def test_strips_trailing_year(self):
        assert _strip_query_tail(["france", "population", "2014"]) == [
            "france", "population",
        ]

    def test_keeps_inner_year(self):
        assert _strip_query_tail(["2014", "census", "france"]) == [
            "2014", "census", "france",
        ]


class TestPatterns:
    def test_what_is_the_a_of_e(self):
        extractor = make_extractor(QueryStreamConfig(min_support=1,
                                                     min_entity_support=1))
        output, _ = extractor.extract(
            records("what is the capital of france")
        )
        assert output.attribute_names("Country") == {"capital"}

    def test_the_a_of_e(self):
        extractor = make_extractor(QueryStreamConfig(min_support=1,
                                                     min_entity_support=1))
        output, _ = extractor.extract(records("the population of france"))
        assert output.attribute_names("Country") == {"population"}

    def test_possessive(self):
        extractor = make_extractor(QueryStreamConfig(min_support=1,
                                                     min_entity_support=1))
        output, _ = extractor.extract(records("france's national anthem"))
        assert output.attribute_names("Country") == {"national anthem"}

    def test_determiner_before_entity(self):
        extractor = make_extractor(QueryStreamConfig(min_support=1,
                                                     min_entity_support=1))
        output, _ = extractor.extract(
            records("who is the author of the silent river")
        )
        assert output.attribute_names("Book") == {"author"}

    def test_unknown_entity_no_match(self):
        extractor = make_extractor(QueryStreamConfig(min_support=1,
                                                     min_entity_support=1))
        output, _ = extractor.extract(records("the capital of atlantis"))
        assert not output.attributes


class TestFilteringRules:
    def _extract(self, *texts):
        extractor = make_extractor(QueryStreamConfig(min_support=1,
                                                     min_entity_support=1))
        output, _ = extractor.extract(records(*texts))
        return output

    def test_stopword_attributes_rejected(self):
        output = self._extract("the best of france", "the cheapest of france")
        assert not output.attributes

    def test_numeric_attributes_rejected(self):
        output = self._extract("the 2014 of france")
        assert not output.attributes

    def test_url_fragments_rejected(self):
        output = self._extract("the www of france")
        assert not output.attributes

    def test_entity_as_attribute_rejected(self):
        output = self._extract("the silent river of france")
        assert "silent river" not in output.attribute_names("Country")


class TestCredibility:
    def test_min_support_enforced(self):
        extractor = make_extractor(
            QueryStreamConfig(min_support=3, min_entity_support=1)
        )
        output, stats = extractor.extract(
            records(
                "the capital of france",
                "the capital of france",
                "what is the capital of france",
                "the anthem of france",
            )
        )
        assert output.attribute_names("Country") == {"capital"}
        assert stats.candidate_attributes["Country"] == 2
        assert stats.credible_attributes["Country"] == 1

    def test_min_entity_support_enforced(self):
        extractor = make_extractor(
            QueryStreamConfig(min_support=2, min_entity_support=2)
        )
        output, _ = extractor.extract(
            records("the capital of france", "the capital of france")
        )
        assert not output.attributes


class TestStats:
    def test_relevant_counts(self):
        extractor = make_extractor()
        _, stats = extractor.extract(
            records(
                "france travel guide",
                "the silent river reviews",
                "unrelated query entirely",
            )
        )
        assert stats.relevant_records == {"Country": 1, "Book": 1}

    def test_alias_and_name_counted_once_per_record(self):
        extractor = make_extractor()
        _, stats = extractor.extract(records("the silent river"))
        assert stats.relevant_records == {"Book": 1}


class TestTable3Shape:
    def test_hotel_yields_no_credible_attributes(self, world, query_log):
        extractor = QueryStreamExtractor(world.entity_index())
        _, stats = extractor.extract(query_log)
        assert stats.credible_attributes.get("Hotel", 0) == 0
        assert stats.relevant_records.get("Hotel", 0) > 0

    def test_non_hotel_classes_yield_attributes(self, world, query_log):
        extractor = QueryStreamExtractor(world.entity_index())
        _, stats = extractor.extract(query_log)
        assert stats.credible_attributes.get("Country", 0) > 0
        assert stats.credible_attributes.get("Book", 0) > 0


class TestNoClaimsByDesign:
    """Regression: the extractor contributes attributes, never claims.

    Query records are questions — they name an attribute and an entity
    but carry no value — so the extractor has no facts to claim; its
    contribution reaches fusion through the seed sets that drive the
    DOM and Web-text extractors (see the module docstring).  These
    tests pin that contract: if someone plumbs triples into this
    extractor (or breaks the attribute → seed path), they fail.
    """

    def test_credible_attributes_but_zero_triples(self):
        extractor = make_extractor(
            QueryStreamConfig(min_support=1, min_entity_support=1)
        )
        output, stats = extractor.extract(
            records(
                "what is the capital of france",
                "the population of france",
            )
        )
        assert output.attribute_names("Country") == {"capital", "population"}
        assert sum(stats.credible_attributes.values()) > 0
        assert output.triples == []

    def test_discovered_attributes_flow_into_seed_sets(self):
        from repro.extract.seeds import build_seed_sets

        extractor = make_extractor(
            QueryStreamConfig(min_support=1, min_entity_support=1)
        )
        output, _ = extractor.extract(
            records("what is the capital of france")
        )
        seeds = build_seed_sets([output], ["Country"], min_support=1)
        assert "capital" in seeds["Country"]


class _CountingIndex(dict):
    """The extractor's surface index, counting span lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


class TestNoiseRecordsCostNoScan:
    """Work counts: a record sharing no token with any entity surface
    is dropped before the span scan and before any pattern runs."""

    def _noise_log(self, count):
        import random

        from repro.synth.querylog import _noise_query

        rng = random.Random(20)
        return [QueryRecord(i, _noise_query(rng)) for i in range(count)]

    def test_noise_only_log_joins_no_span_and_runs_no_pattern(
        self, monkeypatch
    ):
        from repro.textproc.patterns import LexicalPattern

        # Digits keep the surfaces out of the noise generator's reach.
        extractor = QueryStreamExtractor({
            "zubrowka7": Entity("country/7", "Zubrowka7", "Country"),
            "grand9 budapest9": Entity("hotel/9", "Grand9 Budapest9", "Hotel"),
        })
        log = self._noise_log(5000)
        assert not any(
            {"zubrowka7", "grand9", "budapest9"} & set(record.text.split())
            for record in log
        )
        extractor._index = _CountingIndex(extractor._index)
        match_calls = []
        monkeypatch.setattr(
            LexicalPattern,
            "_match_at",
            lambda self, *args: match_calls.append(args),
        )
        output, stats = extractor.extract(log)
        assert extractor._index.lookups == 0
        assert match_calls == []
        assert output.attributes == {} and output.triples == []
        assert stats.relevant_records == {}

    def test_relevant_records_inside_noise_still_count(self):
        extractor = make_extractor(
            QueryStreamConfig(min_support=1, min_entity_support=1)
        )
        log = self._noise_log(200)
        log[50] = QueryRecord(50, "What is the Capital of FRANCE?")
        log[120] = QueryRecord(120, "silent river reviews")
        output, stats = extractor.extract(log)
        assert stats.relevant_records == {"Country": 1, "Book": 1}
        assert output.attribute_names("Country") == {"capital"}
