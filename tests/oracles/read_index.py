"""The read indexes as the serving layer first built them: one walk of
``result.truths`` per index, once per reader.

The oracle of :func:`repro.fusion.readindex.patched`, which builds them
once per version and patches them per delta: the ranking a
``top_entities`` slices and the subject lists a ``scan_predicate``
reads must equal these with ``==``, tie order included.
"""

from __future__ import annotations

from repro.fusion.base import FusionResult

__all__ = ["by_predicate", "ranking"]


def ranking(result: FusionResult) -> list[tuple[float, str]]:
    """``(score, subject)`` by score descending, then subject; a score
    sums a subject's fused-true beliefs in ``truths`` order."""
    scores: dict[str, float] = {}
    for (subject, predicate), value_set in result.truths.items():
        for value in value_set:
            scores[subject] = scores.get(subject, 0.0) + (
                result.belief.get(((subject, predicate), value), 0.0)
            )
    return sorted(
        ((score, subject) for subject, score in scores.items()),
        key=lambda pair: (-pair[0], pair[1]),
    )


def by_predicate(result: FusionResult) -> dict[str, list[str]]:
    """Predicate → the sorted subjects holding a fused-true value."""
    index: dict[str, list[str]] = {}
    for (subject, predicate), values in result.truths.items():
        if values:
            index.setdefault(predicate, []).append(subject)
    for subjects in index.values():
        subjects.sort()
    return index
