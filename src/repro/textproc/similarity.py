"""String similarity measures used across the library.

Entity linking, attribute synonym resolution and misspelling detection
all need cheap, dependency-free string similarity.  Implemented here:
Levenshtein distance (with a band-optimised early exit), Jaro and
Jaro-Winkler similarity, token Jaccard, and a combined name similarity
used by record linkage.

None of them is memoized: the pipeline practically never asks for the
same pair twice (a memo table in front of the Levenshtein DP hit 7
times in 37 484 lookups), so the callers cut the *number* of calls
instead, with the exact candidate filters of
:mod:`repro.entity.blocking`.
"""

from __future__ import annotations


def levenshtein(left: str, right: str, *, limit: int | None = None) -> int:
    """Edit distance between two strings.

    When ``limit`` is given and the true distance exceeds it, any value
    greater than ``limit`` may be returned (callers only compare against
    the limit), which lets the DP exit early.

    The O(1) outcomes are answered before any table is allocated.
    """
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    if limit is not None:
        if abs(len(left) - len(right)) > limit:
            return limit + 1
        if limit <= 3:
            return _banded_levenshtein(left, right, limit)
    previous = list(range(len(right) + 1))
    for row, char_left in enumerate(left, start=1):
        current = [row] + [0] * len(right)
        best = row
        for col, char_right in enumerate(right, start=1):
            substitution = previous[col - 1] + (char_left != char_right)
            current[col] = min(
                previous[col] + 1, current[col - 1] + 1, substitution
            )
            best = min(best, current[col])
        if limit is not None and best > limit:
            return limit + 1
        previous = current
    return previous[-1]


def _banded_levenshtein(left: str, right: str, limit: int) -> int:
    """DP restricted to the ``|i-j| <= limit`` band; exact within the
    limit, returns ``limit + 1`` beyond it."""
    width = len(right)
    big = limit + 1
    previous = [col if col <= limit else big for col in range(width + 1)]
    for row in range(1, len(left) + 1):
        char_left = left[row - 1]
        current = [big] * (width + 1)
        if row <= limit:
            current[0] = row
        low = max(1, row - limit)
        high = min(width, row + limit)
        best = big
        for col in range(low, high + 1):
            cost = previous[col - 1] + (char_left != right[col - 1])
            deletion = previous[col] + 1
            insertion = current[col - 1] + 1
            value = cost
            if deletion < value:
                value = deletion
            if insertion < value:
                value = insertion
            if value > big:
                value = big
            current[col] = value
            if value < best:
                best = value
        if best > limit:
            return big
        previous = current
    return previous[width] if previous[width] <= limit else big


def levenshtein_similarity(left: str, right: str) -> float:
    """``1 - distance / max(len)`` in ``[0, 1]``; empty == empty is 1."""
    if not left and not right:
        return 1.0
    return 1.0 - levenshtein(left, right) / max(len(left), len(right))


def jaro(left: str, right: str) -> float:
    """Jaro similarity in ``[0, 1]``."""
    if left == right:
        return 1.0
    if not left or not right:
        return 0.0
    window = max(len(left), len(right)) // 2 - 1
    window = max(window, 0)
    left_matches = [False] * len(left)
    right_matches = [False] * len(right)
    matches = 0
    for i, char in enumerate(left):
        start = max(0, i - window)
        end = min(i + window + 1, len(right))
        for j in range(start, end):
            if right_matches[j] or right[j] != char:
                continue
            left_matches[i] = True
            right_matches[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, matched in enumerate(left_matches):
        if not matched:
            continue
        while not right_matches[j]:
            j += 1
        if left[i] != right[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len(left)
        + matches / len(right)
        + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(left: str, right: str, *, prefix_scale: float = 0.1) -> float:
    """Jaro-Winkler similarity, boosting shared prefixes (≤ 4 chars)."""
    base = jaro(left, right)
    prefix = 0
    for char_left, char_right in zip(left[:4], right[:4]):
        if char_left != char_right:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def token_jaccard(left: str, right: str) -> float:
    """Jaccard similarity of lower-cased token sets."""
    return token_set_jaccard(
        set(left.lower().split()), set(right.lower().split())
    )


def token_set_jaccard(tokens_left, tokens_right) -> float:
    """Jaccard of two pre-tokenised sets (both empty counts as 1.0).

    The set-level core of :func:`token_jaccard`, exposed so hot paths
    that hold precomputed token sets (the entity layer's surface
    forms) can score without re-splitting the strings on every call.
    """
    if not tokens_left and not tokens_right:
        return 1.0
    if not tokens_left or not tokens_right:
        return 0.0
    overlap = len(tokens_left & tokens_right)
    return overlap / (len(tokens_left) + len(tokens_right) - overlap)


def name_similarity(left: str, right: str) -> float:
    """Combined similarity for entity/attribute names in ``[0, 1]``.

    Takes the stronger of two complementary signals: character-level
    Jaro-Winkler (captures misspelling closeness, "Adelade" ~
    "Adelaide") and token Jaccard (captures word reordering,
    "University of Adelaide" ~ "Adelaide University").  Either signal
    alone can be near zero for a pair the other recognises, so the max
    is the right combiner.
    """
    left_norm = left.lower().strip()
    right_norm = right.lower().strip()
    if left_norm == right_norm:
        return 1.0
    return max(
        jaro_winkler(left_norm, right_norm),
        token_jaccard(left_norm, right_norm),
    )
