"""HTML/DOM substrate: tokenizer, parser, node model, tag paths."""

from repro.htmldom.node import Document, DomNode, ElementNode, TextNode
from repro.htmldom.parser import parse_html
from repro.htmldom.serialize import to_html
from repro.htmldom.tagpath import (
    NOISY_TAGS,
    RelativeTagPath,
    relative_path,
    sequence_similarity,
)
from repro.htmldom.tokenizer import HtmlToken, TokenType, tokenize

__all__ = [
    "Document",
    "DomNode",
    "ElementNode",
    "HtmlToken",
    "NOISY_TAGS",
    "RelativeTagPath",
    "TextNode",
    "TokenType",
    "parse_html",
    "relative_path",
    "sequence_similarity",
    "to_html",
    "tokenize",
]
