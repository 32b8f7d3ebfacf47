"""``MemoryBackend``'s claim-level answers, as one dict and nothing else.

``claims_for_item``, ``claims(triple)`` and ``remove`` each walk the
one dict that defines first-insertion order — no triple indexes, no
batching, no shared structure between copies — and ``remove_all`` is
the delta journal's former loop, a ``claims(triple)`` and a
``remove(triple)`` per triple.  Whatever the backend does to answer
faster (``claims_for_items``, ``remove_all`` in one walk, ``copy()``
sharing the claim objects, one day a per-item index) must return the
same claims in the same order.

The triple-level reads (``match``, ``objects``, ``subjects``,
``predicates``, ``contains_triple``) are derived from the same dict,
one scan each: what the backend's SPO/POS/OSP indexes — shared
copy-on-write between copies — must keep answering.
"""

from __future__ import annotations

from repro.rdf.triple import ScoredTriple, Triple

__all__ = ["LinearScanClaims"]


class LinearScanClaims:
    """The claim-dict half of ``MemoryBackend``."""

    def __init__(self) -> None:
        self._claims: dict = {}

    def __len__(self) -> int:
        return len(self._claims)

    def add(self, scored: ScoredTriple) -> bool:
        key = (scored.triple, scored.provenance)
        existing = self._claims.get(key)
        if existing is not None and existing.confidence >= scored.confidence:
            return False
        self._claims[key] = scored
        return True

    def add_all(self, scored) -> None:
        for one in scored:
            self.add(one)

    def remove(self, triple: Triple) -> int:
        keys = [key for key in self._claims if key[0] == triple]
        for key in keys:
            del self._claims[key]
        return len(keys)

    def remove_all(self, triples) -> dict:
        lost: dict = {}
        for triple in triples:
            victims = self.claims(triple)
            self.remove(triple)
            # A triple listed twice lost its claims the first time.
            lost.setdefault(triple, victims)
        return lost

    def iter_claims(self):
        return iter(self._claims.values())

    def claims(self, triple: Triple | None = None) -> list[ScoredTriple]:
        if triple is None:
            return list(self._claims.values())
        return [
            scored
            for (stored, _prov), scored in self._claims.items()
            if stored == triple
        ]

    def claims_for_item(
        self, subject: str, predicate: str
    ) -> list[ScoredTriple]:
        return [
            scored
            for scored in self._claims.values()
            if scored.triple.subject == subject
            and scored.triple.predicate == predicate
        ]

    # -- the triple-level reads, one scan of the dict each --------------
    def _triples(self) -> list[Triple]:
        """Distinct live triples, in first-insertion order."""
        return list(dict.fromkeys(key[0] for key in self._claims))

    def match(self, subject=None, predicate=None, obj=None) -> list[Triple]:
        return [
            triple
            for triple in self._triples()
            if subject in (None, triple.subject)
            and predicate in (None, triple.predicate)
            and (obj is None or triple.obj == obj)
        ]

    def contains_triple(self, triple: Triple) -> bool:
        return triple in self._triples()

    def objects(self, subject: str, predicate: str) -> set:
        return {triple.obj for triple in self.match(subject, predicate)}

    def subjects(self) -> set[str]:
        return {triple.subject for triple in self._triples()}

    def predicates(self, subject: str | None = None) -> set[str]:
        return {triple.predicate for triple in self.match(subject)}
