"""Attribute extraction from the query stream (Sec. 4, Table 3).

The paper's improved query-stream technique uses the patterns
``"what/how/when/who is the A of (the/a/an) E"``, ``"the A of
(the/a/an) E"`` and ``"E's A"``, plus a set of filtering rules that
exclude meaningless attributes.  Entity recognition treats each class
as a set of representative entities (from the Freebase snapshot).

A candidate attribute becomes **credible** only with enough evidence:
at least ``min_support`` matching records spanning at least
``min_entity_support`` distinct entities.  Classes whose queries are
navigational (Hotel) produce no credible attributes — the paper's
"N/A" row.

**Why this extractor emits no claims (``ExtractorOutput.triples`` is
always empty).** Query records are *questions*: "what is the capital
of Atlantis" names an attribute and an entity but never carries a
value, so there is no (subject, predicate, value) fact to claim and
nothing to hand to fusion directly.  This matches the paper, where the
query-stream technique exists for *new attribute discovery* (Sec. 4,
Table 3 counts credible attributes, not facts).  The extractor's
output still reaches fusion indirectly — and essentially: its credible
attributes join the KB attributes in ``build_seed_sets``, and those
seed sets drive the DOM and Web-text extractors that *do* produce
value claims.  A regression test pins both halves of this contract
(zero triples, attributes flowing into seeds).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.extract.base import ExtractorOutput
from repro.rdf.ontology import Entity
from repro.synth.querylog import QueryRecord
from repro.textproc.normalize import normalize_attribute
from repro.textproc.patterns import LexicalPattern, known_surface
from repro.textproc.tokenize import tokenize_words

EXTRACTOR_ID = "querystream"

# Words that signal navigational/transactional intent, not attributes.
_STOP_ATTRIBUTE_WORDS = frozenset(
    {
        "best", "cheap", "cheapest", "free", "new", "top", "latest",
        "near", "nearby", "good", "photos", "photo", "pictures", "review",
        "reviews", "online", "booking", "deals", "discount", "price",
        "prices", "site", "website", "wiki", "news", "map", "maps",
    }
)

_PATTERN_SOURCES = (
    "what|how|when|who is|was the <A> of [the|a|an] <E>",
    "the <A> of [the|a|an] <E>",
    "<E> 's <A>",
)


@dataclass(slots=True)
class QueryStreamConfig:
    """Extraction thresholds and limits."""

    min_support: int = 3
    min_entity_support: int = 2
    max_attribute_tokens: int = 4
    max_entity_tokens: int = 6


@dataclass(slots=True)
class QueryStreamStats:
    """Per-class stream statistics (the columns of Table 3)."""

    relevant_records: dict[str, int] = field(default_factory=dict)
    candidate_attributes: dict[str, int] = field(default_factory=dict)
    credible_attributes: dict[str, int] = field(default_factory=dict)


@dataclass(slots=True)
class _Evidence:
    support: int = 0
    entities: set[str] = field(default_factory=set)


class QueryStreamExtractor:
    """Pattern-based attribute extraction over a query log."""

    def __init__(
        self,
        entity_index: dict[str, Entity],
        config: QueryStreamConfig | None = None,
    ) -> None:
        self.config = config or QueryStreamConfig()
        self._index = {
            surface.lower(): entity for surface, entity in entity_index.items()
        }
        self._max_surface_tokens = max(
            (len(surface.split()) for surface in self._index),
            default=1,
        )
        # Every token of every surface.  A span equals a surface only
        # if each of its tokens is in here, so a record sharing none
        # mentions no entity and needs no span scan.
        self._surface_tokens = frozenset(
            token for surface in self._index for token in surface.split()
        )
        validators = {"E": known_surface(self._index)}
        self.patterns = [
            LexicalPattern(
                source,
                max_slot_tokens=self.config.max_entity_tokens,
                validators=validators,
            )
            for source in _PATTERN_SOURCES
        ]

    # ------------------------------------------------------------------
    def extract(
        self, records: Iterable[QueryRecord]
    ) -> tuple[ExtractorOutput, QueryStreamStats]:
        """Run extraction; returns discovered attributes plus Table-3 stats."""
        output = ExtractorOutput(EXTRACTOR_ID)
        stats = QueryStreamStats()
        evidence: dict[tuple[str, str], _Evidence] = {}

        for record in records:
            tokens = _strip_query_tail(tokenize_words(record.text))
            if not tokens:
                continue
            lowered = [token.lower() for token in tokens]
            if self._surface_tokens.isdisjoint(lowered):
                continue
            mentioned = self._mentioned_entities(lowered)
            for entity in mentioned.values():
                stats.relevant_records[entity.class_name] = (
                    stats.relevant_records.get(entity.class_name, 0) + 1
                )
            if not mentioned:
                continue
            for attribute, entity in self._match_patterns(tokens):
                if not self._passes_filters(attribute, entity):
                    continue
                key = (entity.class_name, attribute)
                record_evidence = evidence.setdefault(key, _Evidence())
                record_evidence.support += 1
                record_evidence.entities.add(entity.entity_id)

        for (class_name, attribute), record_evidence in evidence.items():
            stats.candidate_attributes[class_name] = (
                stats.candidate_attributes.get(class_name, 0) + 1
            )
            if (
                record_evidence.support >= self.config.min_support
                and len(record_evidence.entities)
                >= self.config.min_entity_support
            ):
                output.add_attribute(
                    class_name,
                    attribute,
                    support=record_evidence.support,
                    entity_support=len(record_evidence.entities),
                    sources={"querystream"},
                )
                stats.credible_attributes[class_name] = (
                    stats.credible_attributes.get(class_name, 0) + 1
                )
        return output, stats

    # ------------------------------------------------------------------
    def _mentioned_entities(self, lowered: list[str]) -> dict[str, Entity]:
        """Entities whose surface form appears as a span of the
        (lower-cased) tokens."""
        found: dict[str, Entity] = {}
        max_len = min(self._max_surface_tokens, len(lowered))
        for span_len in range(max_len, 0, -1):
            for start in range(0, len(lowered) - span_len + 1):
                surface = " ".join(lowered[start : start + span_len])
                entity = self._index.get(surface)
                if entity is not None and entity.entity_id not in found:
                    found[entity.entity_id] = entity
        return found

    def _match_patterns(
        self, tokens: list[str]
    ) -> list[tuple[str, Entity]]:
        """Anchored pattern matches → (canonical attribute, entity)."""
        hits: list[tuple[str, Entity]] = []
        for pattern in self.patterns:
            for match in pattern.match_tokens(tokens, anchored=True):
                entity = self._index.get(match.text("E").lower())
                if entity is None:
                    continue
                attribute = normalize_attribute(match.text("A"))
                if attribute:
                    hits.append((attribute, entity))
        return hits

    def _passes_filters(self, attribute: str, entity: Entity) -> bool:
        """The paper's filtering rules for meaningless attributes."""
        words = attribute.split(" ")
        if not words or len(words) > self.config.max_attribute_tokens:
            return False
        if all(word in _STOP_ATTRIBUTE_WORDS for word in words):
            return False
        if any(word.isdigit() for word in words):
            return False
        if any(
            marker in word
            for word in words
            for marker in ("www", ".com", "http")
        ):
            return False
        if attribute == entity.name.lower():
            return False
        if attribute in self._index:  # attribute text is itself an entity
            return False
        return True


def _strip_query_tail(tokens: list[str]) -> list[str]:
    """Drop trailing punctuation and bare years from a query."""
    end = len(tokens)
    while end > 0:
        token = tokens[end - 1]
        if token in {".", "?", "!", ","}:
            end -= 1
        elif token.isdigit() and len(token) == 4:
            end -= 1
        else:
            break
    return tokens[:end]
