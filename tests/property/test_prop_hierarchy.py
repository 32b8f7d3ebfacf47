"""Property-based tests for value hierarchies."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.hierarchy import ValueHierarchy


@st.composite
def forests(draw):
    """A random forest as a ValueHierarchy plus its node list."""
    size = draw(st.integers(min_value=2, max_value=30))
    nodes = [f"n{i}" for i in range(size)]
    hierarchy = ValueHierarchy()
    # Parent of node i is a strictly smaller index (or none): acyclic.
    for index in range(1, size):
        parent_index = draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=index - 1))
        )
        if parent_index is not None:
            hierarchy.add_edge(nodes[index], nodes[parent_index])
    return hierarchy, nodes


class TestHierarchyInvariants:
    @given(forests())
    @settings(max_examples=60)
    def test_ancestors_are_finite_and_acyclic(self, forest):
        hierarchy, nodes = forest
        for node in nodes:
            ancestors = hierarchy.ancestors(node)
            assert node not in ancestors
            assert len(ancestors) == len(set(ancestors))

    @given(forests())
    @settings(max_examples=60)
    def test_depth_equals_ancestor_count(self, forest):
        hierarchy, nodes = forest
        for node in nodes:
            assert hierarchy.depth(node) == len(hierarchy.ancestors(node))
