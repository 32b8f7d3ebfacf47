"""Unit tests for the ground-truth world."""

import pytest

from repro.errors import GenerationError
from repro.synth.world import GroundTruthWorld, WorldConfig


class TestConfigValidation:
    def test_unknown_class_rejected(self):
        config = WorldConfig(entities_per_class={"Dragon": 5})
        with pytest.raises(GenerationError):
            GroundTruthWorld(config)

    def test_zero_entities_rejected(self):
        config = WorldConfig(entities_per_class={"Book": 0})
        with pytest.raises(GenerationError):
            GroundTruthWorld(config)

    def test_small_value_pool_rejected(self):
        config = WorldConfig(value_pool_size=1)
        with pytest.raises(GenerationError):
            GroundTruthWorld(config)


class TestWorldStructure:
    def test_classes_match_config(self, world):
        assert set(world.classes()) == {
            "Book", "Film", "Country", "University", "Hotel",
        }

    def test_entity_counts(self, world):
        assert len(world.entities("Book")) == 25
        assert len(world.entities("Hotel")) == 15

    def test_entity_ids_unique(self, world):
        ids = [
            entity.entity_id
            for class_name in world.classes()
            for entity in world.entities(class_name)
        ]
        assert len(ids) == len(set(ids))

    def test_universe_sizes(self, world):
        assert len(world.attribute_names("Book")) == 60
        assert len(world.attribute_names("Country")) == 220

    def test_every_entity_has_facts(self, world):
        for class_name in world.classes():
            for entity in world.entities(class_name):
                assert world.truth.match(subject=entity.entity_id)

    def test_deterministic(self):
        config = WorldConfig(
            seed=3, entities_per_class={"Book": 5},
            universe_sizes={"Book": 30},
        )
        first = GroundTruthWorld(config)
        second = GroundTruthWorld(config)
        assert [e.name for e in first.entities("Book")] == [
            e.name for e in second.entities("Book")
        ]
        assert len(first.facts()) == len(second.facts())


class TestTruthSemantics:
    def test_functional_attributes_single_leaf(self, world):
        catalog = world.catalogs["Book"]
        for entity in world.entities("Book"):
            for spec in catalog.attributes:
                if not spec.functional:
                    continue
                leaves = world.true_leaf_values(entity.entity_id, spec.name)
                assert len(leaves) <= 1

    def test_nonfunctional_can_have_multiple(self, world):
        catalog = world.catalogs["Film"]
        nonfunctional = [s.name for s in catalog.attributes if not s.functional]
        counts = [
            len(world.true_leaf_values(entity.entity_id, name))
            for entity in world.entities("Film")
            for name in nonfunctional
        ]
        assert max(counts) > 1

    def test_hierarchy_expansion(self, world):
        # Find a hierarchical fact and check ancestors count as true.
        for entity in world.entities("Country"):
            leaves = world.true_leaf_values(entity.entity_id, "capital")
            if leaves:
                leaf = next(iter(leaves))
                ancestors = world.hierarchy.ancestors(leaf)
                assert ancestors  # cities always sit under region/country
                expanded = world.true_values(entity.entity_id, "capital")
                assert set(ancestors) <= expanded
                return
        pytest.fail("no country with a capital fact")

    def test_is_true_hierarchy_aware(self, world):
        for entity in world.entities("Country"):
            leaves = world.true_leaf_values(entity.entity_id, "capital")
            if leaves:
                leaf = next(iter(leaves))
                parent = world.hierarchy.parent(leaf)
                truths = world.true_values(entity.entity_id, "capital")
                assert leaf in truths
                assert parent in truths
                assert "Nowhere123" not in truths
                return
        pytest.fail("no country with a capital fact")

    def test_value_pools_contain_truths(self, world):
        catalog = world.catalogs["Book"]
        (spec,) = [s for s in catalog.attributes if s.name == "author"]
        pool = set(world.value_pool("Book", spec))
        for entity in world.entities("Book"):
            leaves = world.true_leaf_values(entity.entity_id, "author")
            assert leaves <= pool

    def test_entity_index_covers_aliases(self, world):
        index = world.entity_index()
        for class_name in world.classes():
            for entity in world.entities(class_name):
                for surface in entity.surface_forms():
                    assert surface.lower() in index
