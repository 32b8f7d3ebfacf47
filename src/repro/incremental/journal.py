"""Delta journaling against the triple store.

The :class:`DeltaJournal` is the single write path of the incremental
subsystem: it applies a :class:`~repro.incremental.delta.ClaimDelta`
to a :class:`~repro.rdf.store.TripleStore` strictly through the
store's ``add``/``remove`` operations (so the store's
dedup/max-confidence semantics are the journal's semantics) and
records, per delta, a :class:`DeltaReceipt` naming the *dirty* data
items and sources — the seed set the fusion engine expands through
the connected-component structure of the claim graph.

Within one delta, retractions apply before additions, so a delta can
atomically replace a value for an item.  A retraction is one ``remove``
call, and the claims it returns name the sources that held the triple:
the journal reads nothing back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.incremental.delta import ClaimDelta
from repro.rdf.store import TripleStore

__all__ = ["DeltaJournal", "DeltaReceipt"]

Item = tuple[str, str]


@dataclass(slots=True)
class DeltaReceipt:
    """What one applied delta touched.

    ``added`` counts store insertions that changed state (brand-new
    claims or confidence refreshes); ``noop_additions`` counts adds
    the store deduplicated away; ``removed_claims`` counts the claim
    (triple, provenance) pairs a retraction dropped, and
    ``missing_retractions`` the retracted triples that were not in
    the store at all.  ``dirty_items`` / ``dirty_sources`` name every
    data item and source whose claim content may have changed —
    including the sources of removed claims, captured *before* the
    removal.
    """

    sequence: int
    label: str = ""
    added: int = 0
    noop_additions: int = 0
    removed_claims: int = 0
    missing_retractions: int = 0
    dirty_items: set[Item] = field(default_factory=set)
    dirty_sources: set[str] = field(default_factory=set)

    def to_json_dict(self) -> dict:
        return {
            "sequence": self.sequence,
            "label": self.label,
            "added": self.added,
            "noop_additions": self.noop_additions,
            "removed_claims": self.removed_claims,
            "missing_retractions": self.missing_retractions,
            "dirty_items": sorted(self.dirty_items),
            "dirty_sources": sorted(self.dirty_sources),
        }


class DeltaJournal:
    """Apply deltas to a store, one receipt per delta.

    A receipt's ``sequence`` is 0 here: the caller that owns the delta
    stream (the engine) numbers it and keeps the trail.
    """

    def __init__(self, store: TripleStore) -> None:
        self.store = store

    def apply(self, delta: ClaimDelta) -> DeltaReceipt:
        """Apply one delta; returns its receipt."""
        delta.validate()
        receipt = DeltaReceipt(sequence=0, label=delta.label)

        # Retractions first, one ``remove`` each; the claims it hands
        # back name the sources that held the triple.  A triple listed
        # twice has nothing left to lose the second time.
        for triple in delta.retracted:
            victims = self.store.remove(triple)
            if victims:
                receipt.removed_claims += len(victims)
                receipt.dirty_items.add(triple.item)
                receipt.dirty_sources.update(
                    scored.provenance.source_id for scored in victims
                )
            else:
                receipt.missing_retractions += 1

        for scored in delta.added:
            # Brand-new claims and confidence refreshes change the
            # store; a duplicate at <= the stored confidence does not.
            if self.store.add(scored):
                receipt.added += 1
            else:
                receipt.noop_additions += 1
            receipt.dirty_items.add(scored.triple.item)
            receipt.dirty_sources.add(scored.provenance.source_id)
        return receipt
