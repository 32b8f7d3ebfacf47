"""HTML parser: token stream → DOM tree.

Implements a pragmatic subset of the HTML5 tree-construction rules —
enough to build correct trees for the well-formed-but-sloppy markup a
data-intensive website emits: implied end tags for ``<li>``, ``<p>``,
table sections and cells, recovery from mismatched end tags, and
dropping of end tags that match nothing.
"""

from __future__ import annotations

from repro.htmldom.node import Document, ElementNode, TextNode
from repro.htmldom.tokenizer import TokenType, tokenize

# When a new tag in the key set opens, any open element in the value set
# is implicitly closed first (simplified HTML5 "implied end tags").
_IMPLIED_CLOSE: dict[str, frozenset[str]] = {
    "li": frozenset({"li"}),
    "p": frozenset({"p"}),
    "tr": frozenset({"tr", "td", "th"}),
    "td": frozenset({"td", "th"}),
    "th": frozenset({"td", "th"}),
    "option": frozenset({"option"}),
    "dt": frozenset({"dt", "dd"}),
    "dd": frozenset({"dt", "dd"}),
    "thead": frozenset({"thead", "tbody", "tfoot", "tr", "td", "th"}),
    "tbody": frozenset({"thead", "tbody", "tfoot", "tr", "td", "th"}),
    "tfoot": frozenset({"thead", "tbody", "tfoot", "tr", "td", "th"}),
}


def parse_html(markup: str) -> Document:
    """Parse HTML markup into a :class:`Document` tree.

    Never raises on malformed markup; recovers like a browser.
    """
    document = Document()
    stack: list[ElementNode] = [document]

    for token in tokenize(markup):
        if token.type is TokenType.TEXT:
            if token.data:
                # Normalise adjacent text (DOM Node.normalize()): keeps
                # serialise→parse a fixpoint even after tag recovery
                # leaves two text runs side by side.
                parent = stack[-1]
                if parent.children and isinstance(
                    parent.children[-1], TextNode
                ):
                    parent.children[-1].text += token.data
                else:
                    parent.append(TextNode(token.data))
        elif token.type is TokenType.START_TAG:
            _imply_end_tags(stack, token.data)
            element = ElementNode(token.data, token.attrs)
            stack[-1].append(element)
            stack.append(element)
        elif token.type is TokenType.SELF_CLOSING:
            _imply_end_tags(stack, token.data)
            stack[-1].append(ElementNode(token.data, token.attrs))
        elif token.type is TokenType.END_TAG:
            _close_tag(stack, token.data)
        # Comments and doctypes carry no tree structure; drop them.
    return document


def _imply_end_tags(stack: list[ElementNode], incoming: str) -> None:
    """Pop elements implicitly closed by the incoming start tag."""
    closers = _IMPLIED_CLOSE.get(incoming)
    if closers is None:
        return
    while len(stack) > 1 and stack[-1].tag in closers:
        stack.pop()


def _close_tag(stack: list[ElementNode], tag: str) -> None:
    """Handle an end tag: close up to its nearest open element.

    Every end tag, whatever its name, pops the nearest open element
    with its tag and everything opened inside it; an end tag that
    matches no open element is dropped.
    """
    for index in range(len(stack) - 1, 0, -1):
        if stack[index].tag == tag:
            del stack[index:]
            return
    # No matching opener: ignore (browser behaviour for stray end tags).
