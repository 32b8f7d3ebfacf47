"""Unit tests for tag paths and tag-path similarity."""

import pytest

from repro.htmldom.parser import parse_html
from repro.htmldom.tagpath import (
    RelativeTagPath,
    relative_path,
    sequence_similarity,
)

MARKUP = """
<html><body>
  <h1 class="entity-name">France</h1>
  <table class="infobox">
    <tr><th>Capital</th><td><b>Paris</b></td></tr>
    <tr><th>Population</th><td>67M</td></tr>
  </table>
</body></html>
"""


@pytest.fixture
def chains():
    """Each text's ancestor chain, as the page walk yields it."""
    doc = parse_html(MARKUP)
    return {node.text: chain for node, chain in doc.iter_texts()}


def _tags(chain):
    return tuple(element.tag for element in chain)


class TestAbsolutePath:
    """A node's absolute path is the chain the walk yields with it."""

    def test_text_node_path(self, chains):
        assert _tags(chains["Capital"]) == (
            "html", "body", "table", "tr", "th",
        )

    def test_noisy_tags_removed(self, chains):
        # Paris sits in <td><b>: the <b> is presentational noise.
        path = relative_path(chains["Capital"], chains["Paris"])
        assert path == RelativeTagPath(("th",), "tr", ("td",))

    def test_noisy_tags_kept_when_clean_false(self, chains):
        # The chain itself keeps every element; only paths drop noise.
        assert _tags(chains["Paris"])[-1] == "b"

    def test_with_classes(self, chains):
        path = relative_path(chains["France"], chains["France"])
        assert path == RelativeTagPath((), "h1.entity-name", ())

    def test_element_path_includes_self(self, chains):
        table = chains["Capital"][2]
        assert table.tag == "table"
        assert [_tags(chain) for _, chain in table.iter_texts()][0] == (
            "table", "tr", "th",
        )


class TestSequenceSimilarity:
    def test_identical(self):
        assert sequence_similarity(("a", "b"), ("a", "b")) == 1.0

    def test_empty_both(self):
        assert sequence_similarity((), ()) == 1.0

    def test_disjoint(self):
        assert sequence_similarity(("a",), ("b",)) == 0.0

    def test_one_edit(self):
        assert sequence_similarity(("a", "b", "c"), ("a", "x", "c")) == (
            pytest.approx(2 / 3)
        )

    def test_length_mismatch(self):
        assert 0 < sequence_similarity(("a", "b"), ("a", "b", "c")) < 1

    def test_symmetry(self):
        left, right = ("a", "b", "c"), ("a", "c")
        assert sequence_similarity(left, right) == sequence_similarity(
            right, left
        )


class TestRelativePath:
    def test_between_heading_and_label(self, chains):
        path = relative_path(chains["France"], chains["Capital"])
        assert path.up == ("h1.entity-name",)
        assert path.lca == "body"
        assert path.down == ("table.infobox", "tr", "th")

    def test_same_shape_labels_have_equal_paths(self, chains):
        path_one = relative_path(chains["France"], chains["Capital"])
        path_two = relative_path(chains["France"], chains["Population"])
        assert path_one == path_two
        assert path_one.similarity(path_two) == 1.0

    def test_label_vs_value_differ(self, chains):
        label = relative_path(chains["France"], chains["Capital"])
        value = relative_path(chains["France"], chains["Paris"])
        assert label != value
        assert label.similarity(value) < 1.0

    def test_lca_is_the_last_shared_element(self, chains):
        path = relative_path(chains["Capital"], chains["Population"])
        assert path == RelativeTagPath(("th", "tr"), "table.infobox", ("tr", "th"))

    def test_texts_under_one_element(self, chains):
        path = relative_path(chains["Capital"], chains["Capital"])
        assert path == RelativeTagPath((), "th", ())

    def test_lca_mismatch_halves_similarity(self):
        left = RelativeTagPath(("h1",), "body", ("table", "tr", "th"))
        right = RelativeTagPath(("h1",), "div", ("table", "tr", "th"))
        assert right.similarity(left) == 0.5

    def test_different_documents_rejected(self, chains):
        other = parse_html(MARKUP)
        _, foreign = next(other.iter_texts())
        assert _tags(foreign) == _tags(chains["France"])
        with pytest.raises(ValueError):
            relative_path(chains["France"], foreign)

    def test_empty_chain_rejected(self, chains):
        with pytest.raises(ValueError):
            relative_path((), chains["France"])

    def test_str_rendering(self):
        path = RelativeTagPath(("h1",), "body", ("table", "tr"))
        assert str(path) == "h1 ^body table/tr"

    def test_with_classes(self, chains):
        # Every label carries the element's first CSS class.
        path = relative_path(chains["France"], chains["67M"])
        assert path.up == ("h1.entity-name",)
        assert path.down == ("table.infobox", "tr", "td")
