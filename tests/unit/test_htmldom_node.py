"""Unit tests for the DOM node model (direct construction).

The tree is read the way the build path reads it: the walk's non-blank
texts with their ancestor chains, and ``to_html``.
"""

from repro.htmldom.node import Document, ElementNode, TextNode
from repro.htmldom.serialize import to_html


def sample_tree():
    doc = Document()
    html = doc.append_element("html")
    body = html.append_element("body")
    div = body.append_element("div", {"class": "main", "id": "content"})
    div.append_text("hello")
    span = div.append_element("span")
    span.append_text("world")
    body.append_element("div", {"class": "footer"})
    return doc


def walk(root):
    """``(text, chain tags)`` for every text the walk yields."""
    return [
        (node.text, tuple(element.tag for element in chain))
        for node, chain in root.iter_texts()
    ]


def chains(root):
    return [chain for _, chain in root.iter_texts()]


class TestConstruction:
    def test_append_sets_parent(self):
        # The parent of a text is the last element of its chain.
        doc = sample_tree()
        (hello, chain), _ = doc.iter_texts()
        div = chain[-1]
        assert div.tag == "div" and div.children[0] is hello
        assert chain[-2].tag == "body" and chain[-2].children[0] is div

    def test_append_text_returns_node(self):
        element = ElementNode("p")
        text = element.append_text("x")
        assert isinstance(text, TextNode)
        assert element.children == [text]
        assert list(element.iter_texts()) == [(text, (element,))]

    def test_tag_lowercased(self):
        assert ElementNode("DIV").tag == "div"

    def test_root(self):
        # Every chain starts at the same top element, the document's.
        doc = sample_tree()
        html = doc.children[0]
        assert all(chain[0] is html for chain in chains(doc))

    def test_nodes_hold_no_back_reference(self):
        doc = sample_tree()
        for node, chain in doc.iter_texts():
            assert not hasattr(node, "parent")
            assert all(not hasattr(element, "parent") for element in chain)


class TestTraversal:
    def test_iter_nodes_preorder(self):
        assert to_html(sample_tree()) == (
            '<html><body><div class="main" id="content">hello'
            '<span>world</span></div><div class="footer"></div>'
            "</body></html>"
        )
        assert walk(sample_tree()) == [
            ("hello", ("html", "body", "div")),
            ("world", ("html", "body", "div", "span")),
        ]

    def test_iter_elements_filtered(self):
        assert to_html(sample_tree()).count("<div") == 2

    def test_find_first_match(self):
        first_div = next(
            element
            for chain in chains(sample_tree())
            for element in chain
            if element.tag == "div"
        )
        assert first_div.attrs["id"] == "content"

    def test_find_missing_returns_none(self):
        assert all(
            element.tag != "table"
            for chain in chains(sample_tree())
            for element in chain
        )

    def test_find_all_excludes_self(self):
        # Walked from the first div, its chains hold no second div.
        div = chains(sample_tree())[0][-1]
        assert walk(div) == [("hello", ("div",)), ("world", ("div", "span"))]

    def test_text_content_joins_with_space(self):
        texts = [node.text for node, _ in sample_tree().iter_texts()]
        assert " ".join(texts) == "hello world"

    def test_get_with_default(self):
        div = chains(sample_tree())[0][-1]
        assert div.attrs.get("missing", "?") == "?"

    def test_document_properties(self):
        doc = sample_tree()
        (html,) = doc.children
        assert html.tag == "html"
        assert html.children[0].tag == "body"
        assert all(element.tag != "#document" for element in chains(doc)[0])

    def test_empty_document_properties(self):
        doc = Document()
        assert doc.children == []
        assert list(doc.iter_texts()) == []
        assert to_html(doc) == ""

    def test_texts_under_one_element_share_its_chain(self):
        element = ElementNode("p")
        element.append_text("a")
        element.append_element("br")
        element.append_text("b")
        (_, first), (_, second) = element.iter_texts()
        assert first is second

    def test_blank_texts_skipped(self):
        element = ElementNode("div")
        element.append_text("  \n")
        element.append_element("p").append_text("x")
        element.append_text("\t")
        assert walk(element) == [("x", ("div", "p"))]

    def test_text_directly_under_the_document_has_an_empty_chain(self):
        doc = Document()
        doc.append_text("loose")
        assert walk(doc) == [("loose", ())]
