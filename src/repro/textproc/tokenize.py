"""Word tokenization for Web text and query records.

A rule-based tokenizer good enough for pattern matching over English
queries and sentences: it splits on whitespace, separates trailing
punctuation, keeps possessive ``'s`` as its own token (the query
pattern "E's A" needs it), and preserves internal hyphens and numbers.
"""

from __future__ import annotations

_PUNCTUATION = ".,;:!?\"()[]{}"


def tokenize_words(text: str) -> list[str]:
    """Split text into word tokens.

    >>> tokenize_words("What is the capital of France?")
    ['What', 'is', 'the', 'capital', 'of', 'France', '?']
    >>> tokenize_words("Australia's population")
    ['Australia', "'s", 'population']
    """
    tokens: list[str] = []
    for raw in text.split():
        if raw.isalnum():
            tokens.append(raw)  # no punctuation or possessive to split off
        else:
            tokens.extend(_split_token(raw))
    return tokens


def _split_token(raw: str) -> list[str]:
    """Split one whitespace-delimited chunk into tokens."""
    prefix: list[str] = []
    suffix: list[str] = []
    while raw and raw[0] in _PUNCTUATION:
        prefix.append(raw[0])
        raw = raw[1:]
    while raw and raw[-1] in _PUNCTUATION:
        suffix.append(raw[-1])
        raw = raw[:-1]
    suffix.reverse()
    parts: list[str] = []
    if raw:
        lowered = raw.lower()
        if lowered.endswith("'s") and len(raw) > 2:
            parts = [raw[:-2], raw[-2:]]
        elif lowered.endswith("s'") and len(raw) > 2:
            parts = [raw[:-1], raw[-1]]
        else:
            parts = [raw]
    return prefix + parts + suffix


def normalize_token(token: str) -> str:
    """Lower-case a token for case-insensitive comparison."""
    return token.lower()


def detokenize(tokens: list[str]) -> str:
    """Join tokens back into a readable string.

    Punctuation and possessive markers attach to the preceding token.
    """
    parts: list[str] = []
    for token in tokens:
        if parts and (token in _PUNCTUATION or token in ("'s", "'")):
            parts[-1] += token
        else:
            parts.append(token)
    return " ".join(parts)
