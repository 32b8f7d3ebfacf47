"""DOM node model.

A deliberately small DOM: element nodes with a tag, attributes and
children, plus text nodes.  This is everything Algorithm 1 needs — the
DOM extractor reads a page's non-blank text nodes in document order,
each with the elements above it, and computes tag paths between them.

The tree holds no back-references: a node knows its children and
nothing above it, so a page is freed by reference counting alone.
What sits above a text node is the ancestor chain
:meth:`ElementNode.iter_texts` hands out with it.
"""

from __future__ import annotations

from collections.abc import Iterator


class DomNode:
    """Common base for element and text nodes."""

    __slots__ = ()


class TextNode(DomNode):
    """A text leaf."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = self.text if len(self.text) <= 30 else self.text[:27] + "..."
        return f"TextNode({preview!r})"


class ElementNode(DomNode):
    """An element with a tag name, attributes and ordered children."""

    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: dict[str, str] | None = None) -> None:
        self.tag = tag.lower()
        self.attrs: dict[str, str] = dict(attrs or {})
        self.children: list[DomNode] = []

    def append(self, child: DomNode) -> DomNode:
        """Attach ``child`` as the last child and return it."""
        self.children.append(child)
        return child

    def append_text(self, text: str) -> TextNode:
        """Convenience: append and return a new text node."""
        node = TextNode(text)
        self.append(node)
        return node

    def append_element(
        self, tag: str, attrs: dict[str, str] | None = None
    ) -> "ElementNode":
        """Convenience: append and return a new element node."""
        node = ElementNode(tag, attrs)
        self.append(node)
        return node

    def iter_texts(
        self,
    ) -> Iterator[tuple[TextNode, tuple["ElementNode", ...]]]:
        """Every non-blank text node, in document order, with its chain.

        The chain is the tuple of elements from this node down to the
        text's enclosing element; the synthetic ``#document`` root is
        not part of it.  Text nodes under one element share one tuple.
        """
        chain = () if self.tag == "#document" else (self,)
        stack = [(iter(self.children), chain)]
        while stack:
            children, chain = stack[-1]
            for child in children:
                if isinstance(child, ElementNode):
                    stack.append((iter(child.children), chain + (child,)))
                    break
                if child.text.strip():
                    yield child, chain
            else:
                stack.pop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ElementNode(<{self.tag}>, {len(self.children)} children)"


class Document(ElementNode):
    """Root of a parsed HTML document (a synthetic ``#document`` element)."""

    def __init__(self) -> None:
        super().__init__("#document")
