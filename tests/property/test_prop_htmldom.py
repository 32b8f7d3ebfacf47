"""Property-based tests for the HTML substrate.

The central invariant: serialise(parse(x)) is a fixpoint — parsing its
own output reproduces the same tree (idempotent normalisation), and the
tokenizer never crashes on arbitrary input.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htmldom.parser import parse_html
from repro.htmldom.serialize import to_html
from repro.htmldom.tokenizer import tokenize

# Arbitrary text, including angle brackets and quotes.
junk = st.text(max_size=200)

tags = st.sampled_from(["div", "p", "span", "table", "tr", "td", "ul", "li", "b"])
words = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1,
    max_size=10,
)


@st.composite
def html_trees(draw, depth=3):
    """Generate well-formed HTML markup."""
    if depth == 0 or draw(st.booleans()):
        return draw(words)
    tag = draw(tags)
    children = draw(
        st.lists(html_trees(depth=depth - 1), min_size=0, max_size=3)
    )
    attrs = ""
    if draw(st.booleans()):
        attrs = f' class="{draw(words)}"'
    return f"<{tag}{attrs}>{''.join(children)}</{tag}>"


class TestTokenizerRobustness:
    @given(junk)
    @settings(max_examples=150)
    def test_never_raises(self, markup):
        tokenize(markup)

    @given(junk)
    @settings(max_examples=150)
    def test_parser_never_raises(self, markup):
        parse_html(markup)


class TestRoundTrip:
    @given(html_trees())
    @settings(max_examples=100)
    def test_serialise_parse_fixpoint(self, markup):
        once = to_html(parse_html(markup))
        twice = to_html(parse_html(once))
        assert once == twice

    @given(html_trees())
    @settings(max_examples=100)
    def test_text_content_preserved(self, markup):
        # Every text, with its chain, survives serialise→parse.
        document = parse_html(markup)
        reparsed = parse_html(to_html(document))
        assert _walk(reparsed) == _walk(document)

    @given(st.lists(words, min_size=1, max_size=5))
    @settings(max_examples=50)
    def test_text_nodes_in_document_order(self, texts):
        markup = "".join(f"<p>{t}</p>" for t in texts)
        document = parse_html(markup)
        assert _walk(document) == [(text, ("p",)) for text in texts]


def _walk(document):
    """``(text, chain tags)`` for every text the walk yields."""
    return [
        (node.text, tuple(element.tag for element in chain))
        for node, chain in document.iter_texts()
    ]
