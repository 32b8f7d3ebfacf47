"""Unit tests for the query-stream generator."""

import pytest

from repro.errors import GenerationError
from repro.synth.querylog import (
    PAPER_TABLE3_RELEVANT,
    QueryLogConfig,
    generate_query_log,
)


@pytest.fixture(scope="module")
def log(world):
    return generate_query_log(world, QueryLogConfig(seed=31, scale=0.002))


class TestValidation:
    def test_bad_scale_rejected(self, world):
        with pytest.raises(GenerationError):
            generate_query_log(world, QueryLogConfig(scale=0))

    def test_bad_zipf_rejected(self, world):
        with pytest.raises(GenerationError):
            generate_query_log(world, QueryLogConfig(zipf_exponent=0))


class TestVolumes:
    def test_relevant_counts_scale_with_paper(self, log):
        relevant = {}
        for record in log:
            if record.gold_class:
                relevant[record.gold_class] = (
                    relevant.get(record.gold_class, 0) + 1
                )
        for class_name, paper_count in PAPER_TABLE3_RELEVANT.items():
            expected = max(1, round(paper_count * 0.002))
            assert relevant[class_name] == expected

    def test_noise_dominates(self, log):
        noise = sum(1 for record in log if record.gold_class is None)
        relevant = len(log) - noise
        assert noise > relevant * 5

    def test_record_ids_unique(self, log):
        ids = [record.record_id for record in log]
        assert len(ids) == len(set(ids))


class TestContent:
    def test_hotel_has_no_attribute_intent(self, log):
        hotel_with_attribute = [
            record
            for record in log
            if record.gold_class == "Hotel" and record.gold_attribute
        ]
        hotel_total = [r for r in log if r.gold_class == "Hotel"]
        assert hotel_total
        assert len(hotel_with_attribute) <= max(1, len(hotel_total) // 10)

    def test_attribute_intent_uses_known_attributes(self, world, log):
        for record in log:
            if record.gold_attribute:
                assert record.gold_attribute in world.attribute_names(
                    record.gold_class
                )

    def test_gold_entities_valid(self, world, log):
        valid_ids = {
            entity.entity_id
            for class_name in world.classes()
            for entity in world.entities(class_name)
        }
        for record in log:
            if record.gold_entity:
                assert record.gold_entity in valid_ids

    def test_texts_nonempty(self, log):
        assert all(record.text.strip() for record in log)

    def test_deterministic(self, world):
        config = QueryLogConfig(seed=77, scale=0.001)
        first = generate_query_log(world, config)
        second = generate_query_log(world, config)
        assert [r.text for r in first[:50]] == [r.text for r in second[:50]]

    def test_draw_sequence_is_the_pinned_one(self, query_log):
        """The per-class draw tables (entity and attribute cumulative
        weights computed once, not per record) must leave every RNG
        draw where it was: the stream of the shared fixture, record for
        record, is the one generated before they were hoisted."""
        import hashlib

        assert len(query_log) == 58_533
        assert hashlib.blake2b(
            repr(query_log).encode(), digest_size=16
        ).hexdigest() == "280fab55deab3480f16ce03020fce0c2"
