"""Unit tests for the HTML parser (tree construction).

The tree is read the way the build path reads it: the walk's non-blank
texts with their ancestor chains, and ``to_html``.
"""

from repro.htmldom.parser import parse_html
from repro.htmldom.serialize import to_html


def walk(markup):
    """``(text, chain tags)`` for every text the walk yields."""
    return [
        (node.text, tuple(element.tag for element in chain))
        for node, chain in parse_html(markup).iter_texts()
    ]


class TestBasicTrees:
    def test_nested_structure(self):
        assert walk("<html><body><p>hi</p></body></html>") == [
            ("hi", ("html", "body", "p")),
        ]

    def test_document_root_tag(self):
        doc = parse_html("<p>x</p>")
        assert doc.tag == "#document"
        assert walk("<p>x</p>") == [("x", ("p",))]  # not in the chain

    def test_html_property(self):
        assert [c.tag for c in parse_html("<html></html>").children] == ["html"]
        assert [c.tag for c in parse_html("<p>x</p>").children] == ["p"]

    def test_attributes_preserved(self):
        doc = parse_html('<div id="main" class="wide"></div>')
        (div,) = doc.children
        assert div.attrs == {"id": "main", "class": "wide"}
        assert div.attrs.get("missing", "d") == "d"

    def test_void_element_has_no_children(self):
        markup = "<p>a<br>b</p>"
        assert to_html(parse_html(markup)) == "<p>a<br/>b</p>"
        assert walk(markup) == [("a", ("p",)), ("b", ("p",))]

    def test_parent_links(self):
        # What the chain holds are the parsed elements themselves.
        doc = parse_html("<div><span>x</span></div>")
        ((text, chain),) = doc.iter_texts()
        (div,) = doc.children
        (span,) = div.children
        assert chain[0] is div and chain[1] is span
        assert span.children == [text]


class TestImpliedEndTags:
    def test_li_closes_li(self):
        # siblings, not nested
        assert walk("<ul><li>a<li>b<li>c</ul>") == [
            ("a", ("ul", "li")), ("b", ("ul", "li")), ("c", ("ul", "li")),
        ]

    def test_p_closes_p(self):
        assert to_html(parse_html("<p>one<p>two")) == "<p>one</p><p>two</p>"

    def test_table_cells_close_each_other(self):
        assert to_html(
            parse_html("<table><tr><td>a<td>b<tr><td>c</table>")
        ) == (
            "<table><tr><td>a</td><td>b</td></tr>"
            "<tr><td>c</td></tr></table>"
        )

    def test_dt_dd_close_each_other(self):
        assert walk("<dl><dt>k<dd>v<dt>k2<dd>v2</dl>") == [
            ("k", ("dl", "dt")), ("v", ("dl", "dd")),
            ("k2", ("dl", "dt")), ("v2", ("dl", "dd")),
        ]


class TestRecovery:
    def test_stray_end_tag_ignored(self):
        # Adjacent text runs are normalised into one node.
        assert walk("<div>a</span>b</div>") == [("ab", ("div",))]
        assert to_html(parse_html("<div>a</span>b</div>")) == "<div>ab</div>"

    def test_unclosed_elements_at_eof(self):
        assert walk("<div><p>open") == [("open", ("div", "p"))]

    def test_mismatched_close_pops_to_match(self):
        assert walk("<div><span>x</div>y") == [
            ("x", ("div", "span")), ("y", ()),
        ]

    def test_any_end_tag_closes_to_its_nearest_opener(self):
        # Not only a table or list end tag: </div> closes the <b> too.
        assert to_html(parse_html("<div><b>x</div>y")) == (
            "<div><b>x</b></div>y"
        )

    def test_comments_dropped(self):
        assert walk("<div><!-- note -->x</div>") == [("x", ("div",))]


class TestTraversal:
    def test_iter_text_nodes_skips_blank(self):
        assert walk("<div>  <p>a</p>\n<p>b</p> </div>") == [
            ("a", ("div", "p")), ("b", ("div", "p")),
        ]

    def test_iter_elements_by_tag(self):
        assert walk("<div><p>a</p><span><p>b</p></span></div>") == [
            ("a", ("div", "p")), ("b", ("div", "span", "p")),
        ]

    def test_document_order(self):
        markup = "<div><p>1</p><p>2</p><p>3</p></div>"
        assert [text for text, _ in walk(markup)] == ["1", "2", "3"]

    def test_parse_fragment(self):
        # A fragment parses into its top-level siblings.
        doc = parse_html("<p>a</p><p>b</p>")
        assert [child.tag for child in doc.children] == ["p", "p"]
        assert walk("<p>a</p><p>b</p>") == [("a", ("p",)), ("b", ("p",))]
