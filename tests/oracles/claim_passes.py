"""The claim passes between a claim set and the kernels, re-hashing.

``compile_claims``, ``HierarchicalFusion._expand``, ``shard_claims`` /
``_component_map`` and ``KnowledgeFusion._apply_extractor_weights`` as
they were written first: each builds a :class:`ClaimSet` of its own
through ``add`` (a key tuple, a hash and a dict store per claim) or
asks ``values_of`` for a dict per item, and ``compile_claims`` finds a
claim's place in claim order in an ``id()`` map.  ``src/`` walks the
item runs it is handed instead and must return the same tables and the
same sets — ``list()``, ``items()`` and ``values_of`` of every item,
in order — for any claim set, one built by ``add`` in an order that
interleaves the items included.

The bodies below are the former ``src/`` ones, moved here unchanged
(the two methods on subclasses of their owners).
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable

from repro.fusion.base import Claim, ClaimSet, Item, claiming_sources
from repro.fusion.compiled import CompiledClaims
from repro.fusion.hierarchy import HierarchicalFusion
from repro.fusion.knowledge_fusion import KnowledgeFusion

__all__ = [
    "compile_claims",
    "shard_claims",
    "HierarchicalFusionAddingEveryClaim",
    "KnowledgeFusionAddingEveryClaim",
]


def compile_claims(claims: ClaimSet) -> CompiledClaims:
    """One-pass compilation of a claim set into flat arrays."""
    source_id: dict[str, int] = {}
    claim_list = list(claims)
    claim_index = {id(claim): index for index, claim in enumerate(claim_list)}

    n_claims = len(claim_list)
    claim_pair = [0] * n_claims
    claim_source = [0] * n_claims
    claim_conf = array("d", bytes(8 * n_claims))
    for index, claim in enumerate(claim_list):
        claim_source[index] = source_id.setdefault(
            claim.source_id, len(source_id)
        )
        claim_conf[index] = claim.confidence

    items: list[Item] = []
    pair_item: list[int] = []
    pair_value: list[str] = []
    item_pair_start = [0]
    pair_claim_start = [0]
    pair_claim_ids: list[int] = []
    cover_pair: list[int] = []
    cover_source: list[int] = []
    cover_conf: list[float | None] = []
    claimed_pair: list[int] = []
    claimed_source: list[int] = []
    silent_pair: list[int] = []
    silent_source: list[int] = []
    for item in claims.items():
        item_idx = len(items)
        items.append(item)
        values = claims.values_of(item)
        # Covering sources in the same set-iteration order the legacy
        # per-round loops observe (stable within one process).
        cover = [source_id[name] for name in claiming_sources(values)]
        for value, value_claims in values.items():
            pair = len(pair_item)
            pair_item.append(item_idx)
            pair_value.append(value)
            claimers: dict[int, float] = {}
            for claim in value_claims:
                index = claim_index[id(claim)]
                claim_pair[index] = pair
                pair_claim_ids.append(index)
                source = claim_source[index]
                claimers[source] = max(
                    claimers.get(source, 0.0), claim.confidence
                )
            for source in cover:
                confidence = claimers.get(source)
                cover_pair.append(pair)
                cover_source.append(source)
                cover_conf.append(confidence)
                if confidence is None:
                    silent_pair.append(pair)
                    silent_source.append(source)
                else:
                    claimed_pair.append(pair)
                    claimed_source.append(source)
            pair_claim_start.append(len(pair_claim_ids))
        item_pair_start.append(len(pair_item))

    pair_claim_source = [claim_source[index] for index in pair_claim_ids]
    pair_claim_conf = array(
        "d", (claim_conf[index] for index in pair_claim_ids)
    )

    return CompiledClaims(
        items=items,
        sources=list(source_id),
        pair_item=pair_item,
        pair_value=pair_value,
        item_pair_start=item_pair_start,
        claim_pair=claim_pair,
        claim_source=claim_source,
        claim_conf=claim_conf,
        pair_claim_start=pair_claim_start,
        pair_claim_source=pair_claim_source,
        pair_claim_conf=pair_claim_conf,
        cover_pair=cover_pair,
        cover_source=cover_source,
        cover_conf=cover_conf,
        claimed_pair=claimed_pair,
        claimed_source=claimed_source,
        silent_pair=silent_pair,
        silent_source=silent_source,
    )


def _component_map(claims: ClaimSet) -> dict[str, int]:
    """Source id → component id via union-find over the claim graph.

    Component ids are densely numbered in order of first appearance in
    the claim set's iteration order, so the sharding is deterministic.
    """
    parent: dict[object, object] = {}

    def find(node):
        root = node
        while parent[root] is not root:
            root = parent[root]
        while parent[node] is not root:  # path compression
            parent[node], node = root, parent[node]
        return root

    def union(left, right):
        for node in (left, right):
            if node not in parent:
                parent[node] = node
        left_root, right_root = find(left), find(right)
        if left_root is not right_root:
            parent[right_root] = left_root

    for claim in claims:
        union(("item", claim.item), ("source", claim.source_id))

    component_of_root: dict[object, int] = {}
    mapping: dict[str, int] = {}
    for claim in claims:
        source = claim.source_id
        if source not in mapping:
            root = find(("source", source))
            mapping[source] = component_of_root.setdefault(
                root, len(component_of_root)
            )
    return mapping


def shard_claims(claims: ClaimSet) -> list[ClaimSet]:
    """Split a claim set into its connected components.

    Claims keep their relative order inside each shard, so fusing a
    shard replays the exact float operation order of the global run
    restricted to that component.
    """
    mapping = _component_map(claims)
    shards: dict[int, ClaimSet] = {}
    for claim in claims:
        shards.setdefault(mapping[claim.source_id], ClaimSet()).add(claim)
    return [shards[component] for component in sorted(shards)]


class HierarchicalFusionAddingEveryClaim(HierarchicalFusion):
    """:class:`HierarchicalFusion` expanding through ``ClaimSet.add``."""

    def _expand(self, claims: ClaimSet) -> ClaimSet:
        """Add virtual generalisation claims for hierarchical values."""
        expanded = ClaimSet()
        for claim in claims:
            expanded.add(claim)
            confidence = claim.confidence
            for ancestor in self.hierarchy.ancestors(claim.value):
                confidence *= self.decay
                expanded.add(
                    Claim(
                        item=claim.item,
                        value=ancestor,
                        lexical=ancestor,
                        source_id=claim.source_id,
                        extractor_id=claim.extractor_id,
                        confidence=confidence,
                    )
                )
        return expanded


class KnowledgeFusionAddingEveryClaim(KnowledgeFusion):
    """:class:`KnowledgeFusion` reweighting through ``ClaimSet.add``."""

    def _apply_extractor_weights(
        self, claims: Iterable[Claim], weights: dict[str, float]
    ) -> ClaimSet:
        """Fold extractor-correlation discounts into claim confidences."""
        reweighted = ClaimSet()
        for claim in claims:
            weight = weights.get(claim.extractor_id, 1.0)
            confidence = claim.confidence if self.use_confidence else 1.0
            confidence = max(0.0, min(1.0, confidence * weight))
            # An undiscounted claim (claims are immutable) stands for
            # itself; a zero is rebuilt so its sign is the clamp's.
            if confidence != claim.confidence or confidence == 0.0:
                claim = Claim(
                    item=claim.item,
                    value=claim.value,
                    lexical=claim.lexical,
                    source_id=claim.source_id,
                    extractor_id=claim.extractor_id,
                    confidence=confidence,
                )
            reweighted.add(claim)
        return reweighted
