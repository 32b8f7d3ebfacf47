"""Unit tests for hierarchical value spaces."""

import pytest

from repro.errors import HierarchyError
from repro.rdf.hierarchy import ValueHierarchy


@pytest.fixture
def locations():
    hierarchy = ValueHierarchy()
    hierarchy.add_chain(["Adelaide", "South Australia", "Australia"])
    hierarchy.add_chain(["Melbourne", "Victoria", "Australia"])
    hierarchy.add_chain(["Wuhan", "Hubei", "China"])
    return hierarchy


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(HierarchyError):
            ValueHierarchy().add_edge("x", "x")

    def test_empty_value_rejected(self):
        with pytest.raises(HierarchyError):
            ValueHierarchy().add_edge("", "y")

    def test_reparenting_rejected(self, locations):
        with pytest.raises(HierarchyError):
            locations.add_edge("Adelaide", "Victoria")

    def test_same_edge_twice_ok(self, locations):
        locations.add_edge("Adelaide", "South Australia")

    def test_cycle_rejected(self, locations):
        with pytest.raises(HierarchyError):
            locations.add_edge("Australia", "Adelaide")

    def test_contains(self, locations):
        assert "Adelaide" in locations
        assert "Australia" in locations
        assert "Mars" not in locations


class TestQueries:
    def test_parent(self, locations):
        assert locations.parent("Adelaide") == "South Australia"
        assert locations.parent("Australia") is None

    def test_ancestors_ordered_near_to_far(self, locations):
        assert locations.ancestors("Adelaide") == [
            "South Australia",
            "Australia",
        ]

    def test_depth(self, locations):
        assert locations.depth("Australia") == 0
        assert locations.depth("Adelaide") == 2

    def test_iter(self, locations):
        assert set(locations) == {
            "Adelaide", "South Australia", "Australia", "Melbourne",
            "Victoria", "Wuhan", "Hubei", "China",
        }
