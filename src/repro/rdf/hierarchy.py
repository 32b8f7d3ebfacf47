"""Hierarchical value spaces.

The paper observes that values can be hierarchically structured —
``Adelaide -> South Australia -> Australia`` forms a chain in the
location hierarchy — so even a *functional* attribute (birth place) can
have multiple simultaneously-true values at different abstraction
levels.  Fusion must treat such values as mutually supporting, not
conflicting (Sec. 3.2, bullet 2).

A :class:`ValueHierarchy` is a forest over lexical value strings: each
value has at most one parent (its direct generalisation).  The
generators build one edge by edge; fusion reads it once, through its
nodes and their parents, into
:class:`repro.fusion.hierarchy.CasefoldHierarchy`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import HierarchyError


class ValueHierarchy:
    """A forest of value generalisations.

    Edges point from child (more specific) to parent (more general):
    ``add_edge("Adelaide", "South Australia")``.
    """

    def __init__(self, edges: Iterable[tuple[str, str]] = ()) -> None:
        self._parent: dict[str, str] = {}
        self._nodes: set[str] = set()
        for child, parent in edges:
            self.add_edge(child, parent)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_edge(self, child: str, parent: str) -> None:
        """Declare ``parent`` as the direct generalisation of ``child``.

        Raises :class:`HierarchyError` on re-parenting conflicts or on
        edges that would create a cycle.
        """
        if not child or not parent:
            raise HierarchyError("hierarchy values must be non-empty strings")
        if child == parent:
            raise HierarchyError(f"self-loop on {child!r}")
        existing = self._parent.get(child)
        if existing is not None and existing != parent:
            raise HierarchyError(
                f"{child!r} already has parent {existing!r}; "
                f"cannot re-parent to {parent!r}"
            )
        if child in self.ancestors(parent):
            raise HierarchyError(
                f"edge {child!r} -> {parent!r} would create a cycle"
            )
        self._parent[child] = parent
        self._nodes.update((child, parent))

    def add_chain(self, chain: Iterable[str]) -> None:
        """Declare a most-specific-first chain, e.g.
        ``["Adelaide", "South Australia", "Australia"]``."""
        nodes = list(chain)
        for child, parent in zip(nodes, nodes[1:]):
            self.add_edge(child, parent)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, value: str) -> bool:
        return value in self._nodes

    def __iter__(self) -> Iterator[str]:
        return iter(self._nodes)

    def parent(self, value: str) -> str | None:
        """Direct generalisation, or None for roots / unknown values."""
        return self._parent.get(value)

    def ancestors(self, value: str) -> list[str]:
        """Proper ancestors from nearest to farthest."""
        out: list[str] = []
        current = self._parent.get(value)
        while current is not None:
            out.append(current)
            current = self._parent.get(current)
        return out

    def depth(self, value: str) -> int:
        """Distance to the root of the value's tree (root = 0)."""
        return len(self.ancestors(value))
