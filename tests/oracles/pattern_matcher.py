"""``LexicalPattern.match_tokens`` without any prefilter.

The scan ``src/`` promises to answer: try the pattern at every start
position, left to right, and backtrack through the elements — a
literal consumes one token of its word set, an optional group one or
none (one first), a slot 1..``max_slot_tokens`` tokens, shortest first,
never across punctuation, skipping lengths its validator refuses.
Whatever ``match_tokens`` does to avoid this scan (the required-word
test) must return the same matches: same bindings, same spans, same
order.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.textproc.patterns import LexicalPattern, PatternMatch

__all__ = ["match_tokens_reference"]

_BOUNDARY = frozenset(".,;:!?()[]")


def match_tokens_reference(
    pattern: LexicalPattern,
    tokens: Sequence[str],
    *,
    anchored: bool = False,
) -> list[PatternMatch]:
    """Every non-overlapping match, scanning all start positions."""
    matches: list[PatternMatch] = []
    start = 0
    while start < len(tokens) or (not tokens and start == 0):
        found = _match_from(pattern, tokens, 0, start, anchored)
        if found is None:
            start += 1
        else:
            bindings, end = found
            matches.append(PatternMatch(bindings, start, end))
            start = max(end, start + 1)
        if anchored:
            break
    return matches


def _match_from(pattern, tokens, element_index, at, anchored):
    """``(bindings, end)`` of the first way elements[element_index:]
    match at token ``at``, or None."""
    if element_index == len(pattern.elements):
        if anchored and at != len(tokens):
            return None
        return {}, at
    element = pattern.elements[element_index]
    here = tokens[at].lower() if at < len(tokens) else None
    if element.kind == "literal":
        if here in element.words:
            return _match_from(pattern, tokens, element_index + 1, at + 1, anchored)
        return None
    if element.kind == "optional":
        if here in element.words:
            taken = _match_from(
                pattern, tokens, element_index + 1, at + 1, anchored
            )
            if taken is not None:
                return taken
        return _match_from(pattern, tokens, element_index + 1, at, anchored)
    validator = pattern.validators.get(element.slot)
    for length in range(1, pattern.max_slot_tokens + 1):
        if at + length > len(tokens):
            break
        candidate = list(tokens[at : at + length])
        if _BOUNDARY.intersection(candidate):
            break
        if validator is not None and not validator(candidate):
            continue
        rest = _match_from(
            pattern, tokens, element_index + 1, at + length, anchored
        )
        if rest is not None:
            bindings, end = rest
            return {element.slot: candidate, **bindings}, end
    return None
