"""Web-text extraction: seed-driven lexical-pattern learning.

The framework "learns regular lexical and parse patterns ... from
sentences and adopts these patterns directly to conduct knowledge
extraction" (Sec. 3.1), seeded by the accurate sources.  Concretely:

1. **Learning** — find sentences that simultaneously realise a seed
   fact: an entity of the class, a seed attribute name, and a value the
   seed KB claims for that (entity, attribute).  Abstract the three
   spans into slots, yielding a lexical pattern such as
   ``"the <A> of <E> is <V> ."``.  Patterns must explain at least
   ``min_pattern_support`` distinct sentences to be adopted.
2. **Extraction** — apply the adopted patterns to every sentence.
   Matches yield scored triples; attribute slots that are *not* seeds
   are candidate new attributes (with support thresholds, as in the
   other extractors).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.extract.base import ExtractorOutput
from repro.extract.seeds import SeedSet
from repro.rdf.ontology import Entity
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value
from repro.synth.webtext import TextDocument
from repro.textproc.normalize import normalize_attribute
from repro.textproc.patterns import LexicalPattern, induce_pattern, known_surface
from repro.textproc.sentences import split_sentences
from repro.textproc.tokenize import detokenize, tokenize_words

EXTRACTOR_ID = "webtext"


@dataclass(slots=True)
class WebTextExtractorConfig:
    """Learning and extraction thresholds."""

    min_pattern_support: int = 2
    min_new_attribute_support: int = 2
    max_slot_tokens: int = 6
    max_attribute_tokens: int = 4


@dataclass(slots=True)
class _NewAttributeEvidence:
    support: int = 0
    entities: set[str] = field(default_factory=set)
    sources: set[str] = field(default_factory=set)


class WebTextExtractor:
    """Learn patterns from seed facts, then harvest new triples."""

    def __init__(
        self,
        entity_index: dict[str, Entity],
        seed_sets: dict[str, SeedSet],
        seed_claims: Iterable[ScoredTriple],
        config: WebTextExtractorConfig | None = None,
    ) -> None:
        self.config = config or WebTextExtractorConfig()
        self._index = {
            surface.lower(): entity for surface, entity in entity_index.items()
        }
        self._max_surface_tokens = max(
            (len(surface.split()) for surface in self._index), default=1
        )
        self._seeds = seed_sets
        # (entity_id, canonical attribute) -> claimed lexical values.
        self._seed_values: dict[tuple[str, str], set[str]] = {}
        for claim in seed_claims:
            key = (claim.triple.subject, claim.triple.predicate)
            self._seed_values.setdefault(key, set()).add(
                claim.triple.obj.lexical.lower()
            )
        self.learned_patterns: dict[str, LexicalPattern] = {}
        self._pattern_support: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def learn(self, documents: Iterable[TextDocument]) -> int:
        """Learn patterns from documents; returns adopted pattern count."""
        for document in documents:
            seeds = self._seeds.get(document.class_name)
            if seeds is None:
                continue
            for sentence in split_sentences(document.text):
                tokens = tokenize_words(sentence)
                self._learn_from_sentence(tokens, seeds)
        adopted = {
            source: pattern
            for source, pattern in self.learned_patterns.items()
            if self._pattern_support[source] >= self.config.min_pattern_support
        }
        self.learned_patterns = adopted
        return len(adopted)

    def _learn_from_sentence(
        self, tokens: list[str], seeds: SeedSet
    ) -> None:
        entity_span = self._find_entity_span(tokens)
        if entity_span is None:
            return
        entity, (entity_start, entity_end) = entity_span
        attribute_span = self._find_seed_attribute_span(
            tokens, seeds, forbidden=(entity_start, entity_end)
        )
        if attribute_span is None:
            return
        attribute, (attr_start, attr_end) = attribute_span
        values = self._seed_values.get((entity.entity_id, attribute))
        if not values:
            return
        value_span = self._find_value_span(
            tokens, values, forbidden=[(entity_start, entity_end), (attr_start, attr_end)]
        )
        if value_span is None:
            return
        pattern = induce_pattern(
            tokens,
            {
                "E": (entity_start, entity_end),
                "A": (attr_start, attr_end),
                "V": value_span,
            },
            max_slot_tokens=self.config.max_slot_tokens,
        )
        if pattern is None:
            return
        key = pattern.source
        if key not in self.learned_patterns:
            self.learned_patterns[key] = LexicalPattern(
                key,
                max_slot_tokens=self.config.max_slot_tokens,
                validators={"E": known_surface(self._index)},
            )
            self._pattern_support[key] = 0
        self._pattern_support[key] += 1

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def extract(self, documents: Iterable[TextDocument]) -> ExtractorOutput:
        """Apply the learned patterns; call :meth:`learn` first."""
        output = ExtractorOutput(EXTRACTOR_ID)
        evidence: dict[tuple[str, str], _NewAttributeEvidence] = {}
        for document in documents:
            seeds = self._seeds.get(document.class_name)
            if seeds is None:
                continue
            for sentence in split_sentences(document.text):
                tokens = tokenize_words(sentence)
                self._extract_from_sentence(
                    tokens, document, seeds, output, evidence
                )
        for (class_name, name), record in evidence.items():
            if record.support >= self.config.min_new_attribute_support:
                output.add_attribute(
                    class_name,
                    name,
                    support=record.support,
                    entity_support=len(record.entities),
                    sources=record.sources,
                )
        return output

    def _extract_from_sentence(
        self,
        tokens: list[str],
        document: TextDocument,
        seeds: SeedSet,
        output: ExtractorOutput,
        evidence: dict[tuple[str, str], _NewAttributeEvidence],
    ) -> None:
        for pattern in self.learned_patterns.values():
            for match in pattern.match_tokens(tokens):
                entity = self._index.get(match.text("E").lower())
                if entity is None or entity.class_name != document.class_name:
                    continue
                attribute = normalize_attribute(match.text("A"))
                if not self._acceptable_attribute(attribute):
                    continue
                value_text = detokenize(match.bindings["V"])
                if not value_text:
                    continue
                output.triples.append(
                    ScoredTriple(
                        Triple(entity.entity_id, attribute, Value(value_text)),
                        Provenance(
                            source_id=document.source_id,
                            extractor_id=EXTRACTOR_ID,
                            locator=document.doc_id,
                        ),
                    )
                )
                if attribute not in seeds:
                    key = (document.class_name, attribute)
                    record = evidence.setdefault(key, _NewAttributeEvidence())
                    record.support += 1
                    record.entities.add(entity.entity_id)
                    record.sources.add(document.source_id)

    # ------------------------------------------------------------------
    # Span finders
    # ------------------------------------------------------------------
    def _find_entity_span(
        self, tokens: list[str]
    ) -> tuple[Entity, tuple[int, int]] | None:
        lowered = [token.lower() for token in tokens]
        max_len = min(self._max_surface_tokens, len(tokens))
        for span_len in range(max_len, 0, -1):
            for start in range(0, len(tokens) - span_len + 1):
                entity = self._index.get(
                    " ".join(lowered[start : start + span_len])
                )
                if entity is not None:
                    return entity, (start, start + span_len)
        return None

    def _find_seed_attribute_span(
        self,
        tokens: list[str],
        seeds: SeedSet,
        forbidden: tuple[int, int],
    ) -> tuple[str, tuple[int, int]] | None:
        lowered = [token.lower() for token in tokens]
        for span_len in range(self.config.max_attribute_tokens, 0, -1):
            for start in range(0, len(tokens) - span_len + 1):
                end = start + span_len
                if _overlaps((start, end), forbidden):
                    continue
                candidate = normalize_attribute(" ".join(lowered[start:end]))
                if candidate and candidate in seeds:
                    return candidate, (start, end)
        return None

    def _find_value_span(
        self,
        tokens: list[str],
        values: set[str],
        forbidden: list[tuple[int, int]],
    ) -> tuple[int, int] | None:
        lowered = [token.lower() for token in tokens]
        for span_len in range(self.config.max_slot_tokens, 0, -1):
            for start in range(0, len(tokens) - span_len + 1):
                end = start + span_len
                if any(_overlaps((start, end), span) for span in forbidden):
                    continue
                if " ".join(lowered[start:end]) in values:
                    return (start, end)
        return None

    def _acceptable_attribute(self, attribute: str) -> bool:
        if not attribute:
            return False
        words = attribute.split(" ")
        if len(words) > self.config.max_attribute_tokens:
            return False
        if any(word.isdigit() for word in words):
            return False
        return True


def _overlaps(left: tuple[int, int], right: tuple[int, int]) -> bool:
    return left[0] < right[1] and right[0] < left[1]
