"""Unit tests for class catalogs and location hierarchies."""

import random

import pytest

from repro.errors import GenerationError
from repro.synth.catalog import (
    CLASS_NAMES,
    DEFAULT_UNIVERSE_SIZES,
    build_all_catalogs,
    build_catalog,
    generate_locations,
)


class TestBuildCatalog:
    def test_unknown_class_rejected(self):
        with pytest.raises(GenerationError):
            build_catalog("Spaceship", random.Random(1))

    def test_default_size(self):
        catalog = build_catalog("Book", random.Random(1))
        assert len(catalog) == DEFAULT_UNIVERSE_SIZES["Book"]

    def test_custom_size(self):
        catalog = build_catalog("Book", random.Random(1), universe_size=30)
        assert len(catalog) == 30

    def test_truncation_below_core(self):
        catalog = build_catalog("Book", random.Random(1), universe_size=5)
        assert len(catalog) == 5

    def test_names_unique(self):
        catalog = build_catalog("Country", random.Random(1))
        names = catalog.names()
        assert len(names) == len(set(names))

    def test_core_attributes_first(self):
        catalog = build_catalog("Country", random.Random(1))
        assert catalog.names()[0] == "capital"

    def test_deterministic(self):
        first = build_catalog("Hotel", random.Random(5)).names()
        second = build_catalog("Hotel", random.Random(5)).names()
        assert first == second

    def test_spec_lookup(self):
        catalog = build_catalog("Film", random.Random(1))
        specs = {spec.name: spec for spec in catalog.attributes}
        assert specs["director"].functional
        assert "warp drive" not in specs
        assert tuple(specs) == catalog.names()

    def test_propensities_in_range(self):
        catalog = build_catalog("University", random.Random(1))
        for spec in catalog.attributes:
            assert 0 <= spec.query_propensity <= 1
            assert 0 <= spec.web_propensity <= 1

    def test_hierarchical_attributes_exist(self):
        catalog = build_catalog("Country", random.Random(1))
        assert any(spec.hierarchical for spec in catalog.attributes)


class TestBuildAllCatalogs:
    def test_all_classes_present(self):
        catalogs = build_all_catalogs(random.Random(1))
        assert set(catalogs) == set(CLASS_NAMES)

    def test_override_sizes(self):
        catalogs = build_all_catalogs(random.Random(1), {"Book": 25})
        assert len(catalogs["Book"]) == 25
        assert len(catalogs["Film"]) == DEFAULT_UNIVERSE_SIZES["Film"]


class TestGenerateLocations:
    def test_structure(self):
        hierarchy, cities = generate_locations(random.Random(1), 3, 2, 4)
        assert len(cities) == 3 * 2 * 4
        roots = [value for value in hierarchy if hierarchy.parent(value) is None]
        assert len(roots) == 3

    def test_city_chains_have_three_levels(self):
        hierarchy, cities = generate_locations(random.Random(1), 2, 2, 2)
        for city in cities:
            assert hierarchy.depth(city) == 2

    def test_invalid_sizes_rejected(self):
        with pytest.raises(GenerationError):
            generate_locations(random.Random(1), 0, 1, 1)

    def test_names_unique(self):
        hierarchy, cities = generate_locations(random.Random(1), 4, 3, 5)
        assert len(set(cities)) == len(cities)
