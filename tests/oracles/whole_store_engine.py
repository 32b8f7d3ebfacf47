"""The incremental engine as it was before region-local re-fusion.

Every delta re-reads, sorts and re-shards the *whole* store, digests
every component and reuses the cached entries whose digest held — the
O(store) path :class:`repro.incremental.engine.IncrementalFusion`
replaced.  It is the oracle for that engine's accounting
(``components`` / ``dirty_components`` / ``reused_*`` /
``refused_claims`` / ``degenerate``), fused bytes and
``result.truths`` iteration order; faults and metrics are left out.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.fusion.base import ClaimSet, FusionResult
from repro.fusion.sharding import shard_claims
from repro.incremental.engine import DeltaOutcome, canonical_claims
from repro.incremental.journal import DeltaJournal

__all__ = ["WholeStoreEngine"]


def _component_digest(shard: ClaimSet) -> str:
    signature = sorted(
        (
            claim.item,
            claim.value,
            claim.lexical,
            claim.source_id,
            claim.extractor_id,
            claim.confidence,
        )
        for claim in shard
    )
    return hashlib.sha256(repr(signature).encode()).hexdigest()


@dataclass(slots=True)
class _Entry:
    sources: frozenset[str]
    content_hash: str
    result: FusionResult


class WholeStoreEngine:
    """``prime()`` / ``apply_delta()`` with a full recompute per delta."""

    def __init__(self, fusion, store, *, functional_refresh=None) -> None:
        self.fusion = fusion
        self.store = store
        self.functional_refresh = functional_refresh
        self.entries: list[_Entry] = []
        self.result: FusionResult | None = None
        self.sequence = -1

    def prime(self) -> FusionResult:
        self.entries, self.result, _stats = self._compute(self.store, {})
        self.sequence = 0
        return self.result

    def apply_delta(self, delta) -> DeltaOutcome:
        staged = self.store.copy()
        receipt = DeltaJournal(staged).apply(delta)
        receipt.sequence = self.sequence + 1
        prior = {entry.sources: entry for entry in self.entries}
        entries, result, stats = self._compute(staged, prior)
        self.store, self.entries, self.result = staged, entries, result
        self.sequence += 1
        return DeltaOutcome(
            sequence=self.sequence,
            receipt=receipt,
            result=result,
            components=len(entries),
            dirty_components=stats["dirty"],
            reused_components=stats["reused"],
            reused_verdicts=stats["reused_verdicts"],
            refused_claims=stats["refused_claims"],
            degenerate=stats["dirty"] == len(entries),
        )

    def _compute(self, store, prior):
        fusion = self.fusion
        claims = canonical_claims(store)
        working = claims
        if fusion.use_extractor_correlations:
            working = fusion._apply_extractor_weights(
                claims, fusion._extractor_weights(claims)
            )
        stats = {
            "dirty": 0, "reused": 0, "reused_verdicts": 0,
            "refused_claims": 0,
        }
        entries: list[_Entry] = []
        for shard in shard_claims(working):
            sources = frozenset(shard.sources())
            digest = _component_digest(shard)
            cached = prior.get(sources)
            if cached is not None and cached.content_hash == digest:
                entries.append(cached)
                stats["reused"] += 1
                stats["reused_verdicts"] += len(cached.result.truths)
            else:
                source_weights = (
                    fusion._source_weights(shard)
                    if fusion.use_source_correlations
                    else None
                )
                entries.append(
                    _Entry(
                        sources,
                        digest,
                        fusion._base_method(source_weights).fuse(shard),
                    )
                )
                stats["dirty"] += 1
                stats["refused_claims"] += len(shard)

        merged = FusionResult(fusion.name)
        converged = []
        for entry in entries:
            for item, values in entry.result.truths.items():
                merged.truths[item] = set(values)
            merged.belief.update(entry.result.belief)
            merged.source_quality.update(entry.result.source_quality)
            merged.iterations = max(
                merged.iterations, entry.result.iterations
            )
            converged.append(entry.result.converged_at)
        if converged and all(round_ is not None for round_ in converged):
            merged.converged_at = max(converged)
        if self.functional_refresh is not None:
            fusion.functional_of = self.functional_refresh(claims)
        if fusion.functional_of is not None:
            fusion._constrain_functional(merged)
        return entries, merged, stats
