"""Entity linking: mentions → known entities.

Extractors produce entity *mentions* (surface strings).  The linker
maps a mention to an existing entity of the ontology when one matches
well enough — exact (normalised) surface match first, then fuzzy
matching over names and aliases — and reports the rest as unlinked, to
be handed to new-entity discovery.

Matching runs as a 3-tier cascade:

* **tier 1** — exact normalised-surface hash hit;
* **tier 2** — candidate generation through
  :class:`repro.entity.blocking.SurfaceBlockingIndex` (MinHash/LSH
  buckets + bounded token/prefix postings);
* **tier 3** — the expensive :func:`form_similarity` scorer, run
  only on tier-2 survivors in catalog order, so the argmax and its
  tie-breaking match the full scan.

Pools at or below ``brute_floor`` are scanned in full instead of tiers
2–3 (blocking an almost-empty catalog costs more than it saves; a
floor above the catalog size scans everything).  Catalog
surfaces are normalised and tokenised exactly once, at construction —
``link()`` builds one :class:`SurfaceForm` for the mention and never
re-tokenises the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.entity.blocking import (
    DEFAULT_BRUTE_FLOOR,
    BlockingStats,
    SurfaceBlockingIndex,
)
from repro.rdf.ontology import Entity
from repro.textproc.normalize import normalize_name
from repro.textproc.similarity import jaro_winkler, token_set_jaccard

MENTION_PREFIX = "mention:"

_CONNECTIVES = frozenset({"of", "the", "a", "an", "in", "for"})


@dataclass(frozen=True, slots=True)
class SurfaceForm:
    """A surface pre-normalised and pre-tokenised for repeated scoring.

    ``tokens`` feeds the token-Jaccard signal; ``content_tokens``
    (connectives removed) feeds the permutation/containment boosts.
    Building the form once per catalog entry is what keeps ``link()``
    from re-tokenising the whole catalog on every call.
    """

    norm: str
    tokens: frozenset[str]
    content_tokens: frozenset[str]

    @classmethod
    def from_norm(cls, norm: str) -> "SurfaceForm":
        """Form of an already-normalised surface."""
        tokens = frozenset(norm.split())
        return cls(
            norm,
            tokens,
            frozenset(t for t in tokens if t not in _CONNECTIVES),
        )

    @classmethod
    def build(cls, surface: str) -> "SurfaceForm":
        return cls.from_norm(normalize_name(surface))


def form_similarity(left: SurfaceForm, right: SurfaceForm) -> float:
    """Similarity between two entity surfaces for linking/clustering.

    Extends character/token name similarity (the Jaro-Winkler /
    token-Jaccard max) with token-set reasoning on content words: a
    permutation ("Adelaide University" ~ "University of Adelaide")
    scores 0.9 and a containment ("Atlantis" ⊆ "Republic of Atlantis")
    scores 0.85 — both common co-reference shapes.  Works on
    precomputed forms, so neither side is re-normalised or re-split.
    """
    if left.norm == right.norm:
        score = 1.0
    else:
        score = max(
            jaro_winkler(left.norm, right.norm),
            token_set_jaccard(left.tokens, right.tokens),
        )
    left_tokens = left.content_tokens
    right_tokens = right.content_tokens
    if left_tokens and left_tokens == right_tokens:
        return max(score, 0.9)
    if left_tokens and right_tokens and (
        left_tokens <= right_tokens or right_tokens <= left_tokens
    ):
        return max(score, 0.85)
    return score


def mention_subject(surface: str) -> str:
    """The subject id used for an unlinked mention."""
    return MENTION_PREFIX + normalize_name(surface)


def is_mention(subject: str) -> bool:
    """Is a triple subject an unlinked mention id?"""
    return subject.startswith(MENTION_PREFIX)


@dataclass(frozen=True, slots=True)
class LinkDecision:
    """Outcome of linking one mention."""

    surface: str
    entity: Entity | None
    score: float

    @property
    def linked(self) -> bool:
        return self.entity is not None


class EntityLinker:
    """Match mention surfaces against an entity index.

    Parameters
    ----------
    entity_index:
        Surface form → entity (from
        :meth:`repro.rdf.ontology.Ontology.entity_index`).
    min_similarity:
        Fuzzy-match acceptance threshold; matches below it stay
        unlinked.
    brute_floor:
        Candidate pools at or below this size are scanned exhaustively
        instead of going through the MinHash/LSH blocking index.
    """

    def __init__(
        self,
        entity_index: dict[str, Entity],
        *,
        min_similarity: float = 0.88,
        brute_floor: int = DEFAULT_BRUTE_FLOOR,
    ) -> None:
        self._exact = {
            normalize_name(surface): entity
            for surface, entity in entity_index.items()
        }
        self.min_similarity = min_similarity
        self.brute_floor = brute_floor
        self.blocking_stats = BlockingStats("linker")
        # Fuzzy candidates bucketed by class for optional restriction.
        self._by_class: dict[str, list[tuple[str, Entity]]] = {}
        for surface, entity in self._exact.items():
            self._by_class.setdefault(entity.class_name, []).append(
                (surface, entity)
            )
        # Catalog forms, computed once.  ``_entries`` follows the exact
        # order the full scan visits (classes in insertion
        # order, surfaces within each class), so ascending entry ids
        # replay its tie-breaking.
        self._forms: dict[str, SurfaceForm] = {
            norm: SurfaceForm.from_norm(norm) for norm in self._exact
        }
        self._entries: list[tuple[SurfaceForm, Entity]] = []
        self._class_pool: dict[str, int] = {}
        self._index = SurfaceBlockingIndex()
        for class_name, pairs in self._by_class.items():
            self._class_pool[class_name] = len(pairs)
            for norm, entity in pairs:
                form = self._forms[norm]
                self._index.add(len(self._entries), norm, form.content_tokens)
                self._entries.append((form, entity))

    def publish_blocking_metrics(self, registry) -> None:
        """Fold cascade counters and the LSH bucket-size histogram
        into a metrics registry."""
        self.blocking_stats.publish(registry, self._index)

    def link(self, surface: str, class_name: str | None = None) -> LinkDecision:
        """Link one mention; optionally restricted to a class."""
        normalized = normalize_name(surface)
        stats = self.blocking_stats
        exact = self._exact.get(normalized)
        if exact is not None and (
            class_name is None or exact.class_name == class_name
        ):
            stats.tier1_hits += 1
            return LinkDecision(surface, exact, 1.0)
        probe = SurfaceForm.from_norm(normalized)
        best: Entity | None = None
        best_score = 0.0
        pool = (
            len(self._entries)
            if class_name is None
            else self._class_pool.get(class_name, 0)
        )
        if pool > self.brute_floor:
            candidate_ids = self._index.candidates(
                probe.norm, probe.content_tokens
            )
            if class_name is not None:
                candidate_ids = [
                    entry_id
                    for entry_id in candidate_ids
                    if self._entries[entry_id][1].class_name == class_name
                ]
            stats.observe_candidates(len(candidate_ids), pool)
            stats.tier3_scored += len(candidate_ids)
            for entry_id in candidate_ids:
                form, entity = self._entries[entry_id]
                score = form_similarity(probe, form)
                if score > best_score:
                    best, best_score = entity, score
        else:
            # Small pool: scan it in full.
            stats.fallback_queries += 1
            if class_name is None:
                candidates = [
                    pair for pairs in self._by_class.values() for pair in pairs
                ]
            else:
                candidates = self._by_class.get(class_name, [])
            stats.tier3_scored += len(candidates)
            for candidate_surface, entity in candidates:
                score = form_similarity(probe, self._forms[candidate_surface])
                if score > best_score:
                    best, best_score = entity, score
        if best is not None and best_score >= self.min_similarity:
            return LinkDecision(surface, best, best_score)
        return LinkDecision(surface, None, best_score)
