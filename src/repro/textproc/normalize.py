"""Surface-form normalisation: case, punctuation, plurals, misspellings.

The fusion phase must identify "misspellings, synonyms, and
sub-attributes" (Sec. 3); this module supplies the deterministic
normalisation layer those detectors build on.
"""

from __future__ import annotations

import re

from repro.textproc.similarity import levenshtein

_WHITESPACE = re.compile(r"\s+")
_NON_WORD_EDGE = re.compile(r"^\W+|\W+$")

# Irregular plural → singular forms worth handling explicitly.
_IRREGULAR_SINGULARS = {
    "children": "child",
    "people": "person",
    "men": "man",
    "women": "woman",
    "feet": "foot",
    "teeth": "tooth",
    "mice": "mouse",
    "geese": "goose",
    "criteria": "criterion",
    "phenomena": "phenomenon",
    "series": "series",
    "species": "species",
}


def normalize_name(name: str) -> str:
    """Canonicalise a name: trim, collapse whitespace, lower-case."""
    cleaned = _NON_WORD_EDGE.sub("", name.strip())
    return _WHITESPACE.sub(" ", cleaned).lower()


def singularize(word: str) -> str:
    """Best-effort singular form of one word (rule-based)."""
    lowered = word.lower()
    if lowered in _IRREGULAR_SINGULARS:
        return _IRREGULAR_SINGULARS[lowered]
    if lowered.endswith("ies") and len(lowered) > 3:
        return lowered[:-3] + "y"
    if lowered.endswith(("ches", "shes", "xes", "sses", "zes")):
        return lowered[:-2]
    if lowered.endswith("oes") and len(lowered) > 3:
        return lowered[:-2]
    if (
        len(lowered) > 2
        and lowered.endswith("s")
        and not lowered.endswith(("ss", "us", "is"))
    ):
        return lowered[:-1]
    return lowered


def normalize_attribute(name: str) -> str:
    """Canonical attribute key: normalised, underscores/hyphens folded,
    final word singularised (``"Birth-Places" -> "birth place"``).

    The final word keeps its plural inside an ``of`` construction
    ("number of pages"), where the plural is part of the meaning rather
    than morphological variation.
    """
    cleaned = normalize_name(name.replace("_", " ").replace("-", " "))
    if not cleaned:
        return cleaned
    words = cleaned.split(" ")
    if "of" not in words[:-1]:
        words[-1] = singularize(words[-1])
    return " ".join(words)


def is_probable_misspelling(
    left: str, right: str, *, normalized: bool = False
) -> bool:
    """Are two normalised names likely the same word misspelled?

    True when the edit distance is small relative to length (1 for
    short strings, 2 for longer ones) but the strings differ.  Pass
    ``normalized=True`` when both inputs are already canonical (hot
    loops skip re-normalisation).
    """
    if normalized:
        left_norm, right_norm = left, right
    else:
        left_norm = normalize_name(left)
        right_norm = normalize_name(right)
    if left_norm == right_norm or not left_norm or not right_norm:
        return False
    max_len = max(len(left_norm), len(right_norm))
    allowed = 1 if max_len <= 6 else 2
    if abs(len(left_norm) - len(right_norm)) > allowed:
        return False
    return levenshtein(left_norm, right_norm, limit=allowed) <= allowed
