"""Unit tests for synthetic KB snapshots."""

import pytest

from repro.synth.kb_snapshots import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    KbPairConfig,
    build_kb_pair,
    build_representative_snapshots,
    decamelize,
    render_name,
)


class TestNaming:
    def test_render_camel(self):
        assert render_name("publication date", "Book", "camel") == (
            "publicationDate"
        )

    def test_render_snake(self):
        assert render_name("publication date", "Book", "snake") == (
            "book/publication_date"
        )

    def test_render_label(self):
        assert render_name("publication date", "Book", "label") == (
            "publication date"
        )

    def test_render_unknown_rejected(self):
        with pytest.raises(Exception):
            render_name("x", "Book", "yaml")

    def test_decamelize(self):
        assert decamelize("publicationDate") == "publication date"
        assert decamelize("isbn") == "isbn"

    def test_roundtrip_camel(self):
        rendered = render_name("number of pages", "Book", "camel")
        assert decamelize(rendered) == "number of pages"


class TestKbPair:
    def test_naming_conventions(self, kb_pair):
        freebase, dbpedia = kb_pair
        assert freebase.naming == "snake"
        assert dbpedia.naming == "camel"

    def test_schema_counts_match_calibration(self, kb_pair, world):
        freebase, dbpedia = kb_pair
        for class_name, (db_schema, _, fb_schema, _, _) in PAPER_TABLE2.items():
            universe = len(world.attribute_names(class_name))
            assert len(dbpedia.classes[class_name].schema_attributes) == min(
                db_schema, universe
            )
            assert len(freebase.classes[class_name].schema_attributes) == min(
                fb_schema, universe
            )

    def test_instance_attribute_counts_clamped(self, kb_pair, world):
        freebase, dbpedia = kb_pair
        for class_name, (_, db_inst, _, fb_inst, _) in PAPER_TABLE2.items():
            universe = len(world.attribute_names(class_name))
            assert len(dbpedia.classes[class_name].instance_attributes) == min(
                db_inst, universe
            )
            assert len(freebase.classes[class_name].instance_attributes) == min(
                fb_inst, universe
            )

    def test_entity_ratio_respected(self, kb_pair, world):
        freebase, dbpedia = kb_pair
        total = sum(len(world.entities(c)) for c in world.classes())
        assert freebase.entity_count() == total
        assert dbpedia.entity_count() < total

    def test_every_instance_attribute_used(self, kb_pair):
        freebase, _ = kb_pair
        for class_name, view in freebase.classes.items():
            used = {
                scored.triple.predicate for scored in freebase.store.claims()
            }
            for attribute in view.instance_attributes:
                assert attribute in used

    def test_claims_have_kb_provenance(self, kb_pair):
        freebase, _ = kb_pair
        for scored in freebase.store.claims()[:50]:
            assert scored.provenance.source_id == "freebase"

    def test_deterministic(self, world):
        pair_one = build_kb_pair(world, KbPairConfig(seed=2))
        pair_two = build_kb_pair(world, KbPairConfig(seed=2))
        assert len(pair_one[0].store) == len(pair_two[0].store)
        assert pair_one[1].attribute_count() == pair_two[1].attribute_count()


class TestRepresentativeSnapshots:
    def test_all_four_kbs(self, world):
        snapshots = build_representative_snapshots(world)
        assert set(snapshots) == set(PAPER_TABLE1)

    def test_entity_counts_ordered_like_paper(self, world):
        snapshots = build_representative_snapshots(world)
        counts = {name: snap.entity_count() for name, snap in snapshots.items()}
        assert counts["Freebase"] > counts["YAGO"] > counts["DBpedia"] > (
            counts["NELL"]
        )

    def test_attribute_counts_ordered_like_paper(self, world):
        snapshots = build_representative_snapshots(world)
        counts = {
            name: snap.attribute_count() for name, snap in snapshots.items()
        }
        assert counts["DBpedia"] > counts["Freebase"] > counts["NELL"] > (
            counts["YAGO"]
        )
