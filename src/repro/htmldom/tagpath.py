"""Tag paths and tag-path similarity.

Algorithm 1 of the paper works on *tag paths*: the sequence of element
tags from the document root down to a text node.  The paths between an
entity node and a seed-attribute node are induced into a pattern set,
after "removal of noisy tags"; other nodes whose paths are *similar* to
an induced pattern are recognised as new attributes.

A node's path is the ancestor chain the page walk
(:meth:`~repro.htmldom.node.ElementNode.iter_texts`) hands out with it.
:func:`relative_path` turns two chains into the structural relation
between their nodes: the tags climbing from the first node to their
lowest common ancestor and descending to the second node.  This is
what "tag path between E and A" means operationally: it is invariant
to where the pair sits in the page, which lets a pattern learned from
one (entity, seed) pair transfer to sibling records on the same page.
Each label carries the element's first CSS class and noisy tags are
removed, as the paper does.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.htmldom.node import ElementNode
from repro.textproc.memo import memoized_pair

# Purely presentational tags the paper removes as noise before
# comparing tag paths.
NOISY_TAGS = frozenset(
    {"b", "i", "em", "strong", "span", "font", "u", "small", "sup", "sub"}
)


def _tag_label(element: ElementNode) -> str:
    """The path label of one element: ``tag`` or ``tag.first-class``.

    Including the first CSS class disambiguates structurally identical
    positions (``div.key`` vs ``div.val``), which real-world wrapper
    induction also relies on.
    """
    class_attr = element.attrs.get("class", "").split()
    if class_attr:
        return f"{element.tag}.{class_attr[0]}"
    return element.tag


def _clean_labels(elements: Sequence[ElementNode]) -> tuple[str, ...]:
    """The labels of ``elements`` in order, noisy tags removed."""
    labels = map(_tag_label, elements)
    return tuple(
        label for label in labels if label.split(".", 1)[0] not in NOISY_TAGS
    )


@memoized_pair("tagpath-sequence")
def sequence_similarity(left: tuple[str, ...], right: tuple[str, ...]) -> float:
    """Normalised tag-sequence similarity in ``[0, 1]``.

    ``1 - levenshtein(left, right) / max(len)``; two empty sequences are
    identical (1.0).  Memoized (bounded, see :mod:`repro.textproc.memo`):
    pages sharing a layout score the same sequences over and over.
    """
    if not left and not right:
        return 1.0
    distance = _levenshtein(left, right)
    return 1.0 - distance / max(len(left), len(right))


def _levenshtein(left: tuple[str, ...], right: tuple[str, ...]) -> int:
    """Edit distance between two tag sequences (two-row DP)."""
    if not left:
        return len(right)
    if not right:
        return len(left)
    previous = list(range(len(right) + 1))
    for row, tag_left in enumerate(left, start=1):
        current = [row] + [0] * len(right)
        for col, tag_right in enumerate(right, start=1):
            substitution = previous[col - 1] + (tag_left != tag_right)
            current[col] = min(previous[col] + 1, current[col - 1] + 1, substitution)
        previous = current
    return previous[-1]


@dataclass(frozen=True, slots=True)
class RelativeTagPath:
    """Structural relation between two nodes in one DOM tree.

    ``up`` is the tag sequence climbing from the first node's enclosing
    element to (excluding) the lowest common ancestor; ``lca`` is the
    common ancestor's tag; ``down`` descends from below the LCA to the
    second node's enclosing element.
    """

    up: tuple[str, ...]
    lca: str
    down: tuple[str, ...]

    def similarity(self, other: "RelativeTagPath") -> float:
        """Similarity in ``[0, 1]`` combining both arms and the LCA tag.

        The arms are compared by normalised edit distance; a mismatched
        LCA tag halves the score, since patterns anchored at different
        containers (e.g. a table vs. a list) rarely transfer.
        """
        return path_similarity(self, other)

    def __str__(self) -> str:
        up = "/".join(self.up) or "."
        down = "/".join(self.down) or "."
        return f"{up} ^{self.lca} {down}"


@memoized_pair("tagpath-relative", symmetric=False)
def path_similarity(left: RelativeTagPath, right: RelativeTagPath) -> float:
    """Memoized :meth:`RelativeTagPath.similarity` kernel.

    Algorithm 1 compares every candidate label's path against every
    induced pattern, and identical (path, pattern) pairs recur on every
    page of a site that shares a layout — the single hottest comparison
    in DOM extraction.  ``RelativeTagPath`` is frozen/hashable, so the
    pair itself is the cache key (orientation-sensitive: paths are not
    orderable, and the score is symmetric anyway, so each orientation
    simply warms its own entry).
    """
    up_similarity = sequence_similarity(left.up, right.up)
    down_similarity = sequence_similarity(left.down, right.down)
    score = (up_similarity + down_similarity) / 2.0
    if left.lca != right.lca:
        score *= 0.5
    return score


def relative_path(
    from_chain: Sequence[ElementNode], to_chain: Sequence[ElementNode]
) -> RelativeTagPath:
    """The :class:`RelativeTagPath` between two nodes of one tree, given
    their ancestor chains (root first, as the page walk yields them).

    Raises ``ValueError`` when the chains do not share a root.
    """
    if not from_chain or not to_chain or from_chain[0] is not to_chain[0]:
        raise ValueError("nodes do not belong to the same document")
    common = 0
    for left, right in zip(from_chain, to_chain):
        if left is not right:
            break
        common += 1
    return RelativeTagPath(
        _clean_labels(from_chain[common:][::-1]),
        _tag_label(from_chain[common - 1]),
        _clean_labels(to_chain[common:]),
    )
