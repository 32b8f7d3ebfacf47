"""A lexical-pattern engine over token sequences.

The query-stream extractor matches hand-written patterns such as
``"what/how/when/who is the A of (the/a/an) E"`` (Sec. 4); the Web-text
extractor *learns* patterns from sentences that realise a known seed
fact.  Both are served by :class:`LexicalPattern`, a small
token-sequence pattern language:

* ``word`` — literal token (case-insensitive);
* ``what|how|when`` — required alternation of literals;
* ``[the|a|an]`` — optional alternation (matches zero or one token);
* ``<E>`` — a named slot capturing 1..``max_slot_tokens`` tokens.

Matching is a back-tracking scan over the token list; slots are
non-greedy.  The engine is deliberately regular-expression-free so slot
semantics (token counts, per-slot validators) stay explicit.

Before scanning, :meth:`LexicalPattern.match_tokens` applies an exact
necessary condition: every literal (non-optional) element consumes one
token out of its word set, so a sequence that holds no word of some
literal element cannot match at any position and is answered ``[]``
without backtracking.  Most query records and most (sentence, learned
pattern) pairs leave here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Container, Sequence

from repro.errors import ParseError

SlotValidator = Callable[[list[str]], bool]


@dataclass(frozen=True, slots=True)
class PatternElement:
    """One element of a pattern: literal alternation or named slot."""

    kind: str  # "literal", "optional", "slot"
    words: tuple[str, ...] = ()  # for literal/optional alternations
    slot: str = ""  # for slots


@dataclass(frozen=True, slots=True)
class PatternMatch:
    """A successful match: slot bindings plus the matched token span."""

    bindings: dict[str, list[str]]
    start: int
    end: int

    def text(self, slot: str) -> str:
        """The surface text bound to a slot."""
        return " ".join(self.bindings[slot])


class LexicalPattern:
    """A compiled token-sequence pattern.

    Parameters
    ----------
    source:
        The pattern expression (see module docstring).
    max_slot_tokens:
        Maximum number of tokens one slot may capture.
    validators:
        Optional per-slot predicates; a candidate binding failing its
        validator forces backtracking.
    """

    def __init__(
        self,
        source: str,
        *,
        max_slot_tokens: int = 6,
        validators: dict[str, SlotValidator] | None = None,
    ) -> None:
        if max_slot_tokens < 1:
            raise ParseError("max_slot_tokens must be >= 1")
        self.source = source
        self.max_slot_tokens = max_slot_tokens
        self.validators = dict(validators or {})
        self.elements = _compile(source)
        slots = [el.slot for el in self.elements if el.kind == "slot"]
        if len(slots) != len(set(slots)):
            raise ParseError(f"duplicate slot names in pattern {source!r}")
        self.slot_names: tuple[str, ...] = tuple(slots)
        # One word set per distinct literal element: a match needs a
        # token from each of them.
        self._required: tuple[frozenset[str], ...] = tuple(
            dict.fromkeys(
                frozenset(el.words)
                for el in self.elements
                if el.kind == "literal"
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LexicalPattern({self.source!r})"

    # ------------------------------------------------------------------
    def match_tokens(
        self, tokens: Sequence[str], *, anchored: bool = False
    ) -> list[PatternMatch]:
        """All non-overlapping matches against a token sequence.

        With ``anchored=True`` the pattern must consume the entire
        sequence (used for query records, which are short); otherwise
        the pattern is scanned across the sequence.
        """
        lowered = [token.lower() for token in tokens]
        present = set(lowered)
        for words in self._required:
            if words.isdisjoint(present):
                return []
        matches: list[PatternMatch] = []
        start = 0
        while start <= len(tokens) - 1 or (not tokens and start == 0):
            found = self._match_at(tokens, lowered, start, anchored)
            if found is not None:
                matches.append(found)
                start = max(found.end, start + 1)
            else:
                start += 1
            if anchored:
                break
        return matches

    # ------------------------------------------------------------------
    def _match_at(
        self,
        tokens: Sequence[str],
        lowered: Sequence[str],
        start: int,
        anchored: bool,
    ) -> PatternMatch | None:
        bindings: dict[str, list[str]] = {}
        end = self._match_from(0, start, (tokens, lowered, anchored, bindings))
        if end is None:
            return None
        return PatternMatch(dict(bindings), start, end)

    def _match_from(
        self, element_index: int, token_index: int, scan: tuple
    ) -> int | None:
        """Try to match elements[element_index:]; returns end index.

        ``scan`` is ``(tokens, lowered, anchored, bindings)``.  A method,
        not a closure: a closure that calls itself holds its own cell, a
        cycle left to the collector on every scan."""
        tokens, lowered, anchored, bindings = scan
        if element_index == len(self.elements):
            if anchored and token_index != len(tokens):
                return None
            return token_index
        element = self.elements[element_index]
        rest = element_index + 1
        if element.kind == "literal":
            if (
                token_index < len(tokens)
                and lowered[token_index] in element.words
            ):
                return self._match_from(rest, token_index + 1, scan)
            return None
        if element.kind == "optional":
            if (
                token_index < len(tokens)
                and lowered[token_index] in element.words
            ):
                end = self._match_from(rest, token_index + 1, scan)
                if end is not None:
                    return end
            return self._match_from(rest, token_index, scan)
        # Slot: try lengths non-greedily.
        validator = self.validators.get(element.slot)
        for length in range(1, self.max_slot_tokens + 1):
            if token_index + length > len(tokens):
                break
            candidate = list(tokens[token_index : token_index + length])
            if any(_is_boundary_token(tok) for tok in candidate):
                break
            if validator is not None and not validator(candidate):
                continue
            bindings[element.slot] = candidate
            end = self._match_from(rest, token_index + length, scan)
            if end is not None:
                return end
        bindings.pop(element.slot, None)
        return None


def known_surface(index: Container[str]) -> SlotValidator:
    """A slot validator accepting a span whose lower-cased text is in
    ``index``.  It holds the index alone: a bound method of the
    extractor that owns the patterns would tie the two in a cycle."""
    return lambda tokens: " ".join(tokens).lower() in index


def _is_boundary_token(token: str) -> bool:
    """Tokens a slot may never span (punctuation)."""
    return token in {".", ",", ";", ":", "!", "?", "(", ")", "[", "]"}


def _compile(source: str) -> tuple[PatternElement, ...]:
    """Compile a pattern expression into elements."""
    elements: list[PatternElement] = []
    for chunk in source.split():
        if chunk.startswith("<") and chunk.endswith(">"):
            name = chunk[1:-1].strip()
            if not name:
                raise ParseError(f"empty slot in pattern {source!r}")
            elements.append(PatternElement("slot", slot=name))
        elif chunk.startswith("[") and chunk.endswith("]"):
            words = tuple(
                word.strip().lower()
                for word in chunk[1:-1].split("|")
                if word.strip()
            )
            if not words:
                raise ParseError(f"empty optional group in pattern {source!r}")
            elements.append(PatternElement("optional", words=words))
        else:
            words = tuple(
                word.strip().lower()
                for word in chunk.split("|")
                if word.strip()
            )
            if not words:
                raise ParseError(f"empty literal in pattern {source!r}")
            elements.append(PatternElement("literal", words=words))
    if not elements:
        raise ParseError("pattern must contain at least one element")
    return tuple(elements)


def induce_pattern(
    tokens: Sequence[str],
    spans: dict[str, tuple[int, int]],
    *,
    max_slot_tokens: int = 6,
) -> LexicalPattern | None:
    """Generalise a token sequence into a pattern.

    ``spans`` maps slot names to half-open token ranges that should be
    abstracted into slots (e.g. where the entity, attribute and value of
    a seed fact occur).  Overlapping spans, or spans out of range,
    return ``None`` — the sentence cannot be generalised.
    """
    ordered = sorted(spans.items(), key=lambda item: item[1][0])
    previous_end = 0
    parts: list[str] = []
    for name, (start, end) in ordered:
        if start < previous_end or end <= start or end > len(tokens):
            return None
        parts.extend(_escape_literal(tok) for tok in tokens[previous_end:start])
        parts.append(f"<{name}>")
        previous_end = end
    parts.extend(_escape_literal(tok) for tok in tokens[previous_end:])
    source = " ".join(part for part in parts if part)
    if "<" not in source:
        return None
    try:
        return LexicalPattern(source, max_slot_tokens=max_slot_tokens)
    except ParseError:
        return None


def _escape_literal(token: str) -> str:
    """Render one token as a literal pattern element (drop specials)."""
    cleaned = token.strip()
    if not cleaned or any(ch in cleaned for ch in "<>[]|"):
        return ""
    return cleaned.lower()
