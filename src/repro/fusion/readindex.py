"""The read indexes of a merged fusion result.

Two reads of a served KB cannot be answered by a probe of the result:
ranking subjects by the summed belief of their fused-true values, and
listing the subjects that hold a fused-true value for one predicate.
:class:`ReadIndex` holds both, built from a result, and
:func:`patched` is its one builder.  Cold (no prior index) it walks
every item of the result.  Given the index of the previous result and
the items a change can have moved, it copies the prior index and
re-derives the touched subjects' entries alone, so the cost of keeping
the index current tracks the change, not the result (the incremental
engine patches it per delta, over the delta's region).

Scores are exact.  A subject's score is summed from 0.0 over its items
in ``result.truths`` order, each truth set in its own iteration order:
the additions a walk of the whole result makes.  A patch re-sums a
touched subject the same way and never adjusts a score by a
difference, so a patched index equals the cold build of its result,
float for float and tie for tie.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterable
from dataclasses import dataclass

from repro.fusion.base import FusionResult, Item

__all__ = ["ReadIndex", "patched"]


@dataclass(frozen=True, slots=True)
class ReadIndex:
    """The top-k ranking and the predicate index of one result.

    ``scores`` maps each subject with at least one fused-true value to
    its summed belief; ``ranking`` is ``(-score, subject)`` for each of
    them, sorted — score descending, then subject — and negated so
    that it sorts and bisects as plain tuples; ``by_predicate`` maps
    each predicate to the sorted subjects holding a fused-true value
    for it, as a tuple of strings (which the collector stops tracking,
    where a list stays tracked for its life).  Never changed once
    built: a patch copies what it changes, so every holder of an index
    keeps reading the result it was built from.
    """

    scores: dict[str, float]
    ranking: list[tuple[float, str]]
    by_predicate: dict[str, tuple[str, ...]]


def _replaced(ordered, gone, new) -> list:
    """A copy of the sorted sequence ``ordered`` (no two elements equal)
    less the elements ``gone`` plus ``new``: bisected out and in when
    they are few, filtered and sorted when they are a large share —
    the same list either way."""
    if (len(gone) + len(new)) * 8 > len(ordered):
        if gone:
            dropped = set(gone)
            ordered = [element for element in ordered if element not in dropped]
        return sorted([*ordered, *new])
    copied = list(ordered)
    for element in gone:
        del copied[bisect_left(copied, element)]
    for element in new:
        insort(copied, element)
    return copied


def patched(
    prior: ReadIndex | None,
    result: FusionResult,
    touched: Iterable[Item] | None = None,
) -> ReadIndex:
    """The read index of ``result``.

    Without a ``prior`` every item of ``result`` is touched: the cold
    build.  With one, ``prior`` is the index of an earlier result and
    ``touched`` names every item whose truth set or beliefs can differ
    between the two, and with them every other item of their
    subjects, in ``result.truths`` order (an item ``result`` no longer
    holds may stand anywhere).  Every other subject keeps its score,
    its rank and its predicate entries as ``prior`` holds them.
    """
    truths = result.truths
    belief = result.belief.get
    if prior is None:
        prior = ReadIndex({}, [], {})
        pairs = truths.items()
    else:
        pairs = ((item, truths.get(item, ())) for item in touched)
    # Touched subject -> its score, None while no value is summed.
    sums: dict[str, float | None] = {}
    # Predicate -> the subjects gaining it, and those losing it.
    gained: dict[str, list[str]] = {}
    lost: dict[str, list[str]] = {}
    by_predicate = prior.by_predicate
    for item, values in pairs:
        subject, predicate = item
        if values:
            total = sums.get(subject)
            if total is None:
                total = 0.0
            for value in values:
                total += belief((item, value), 0.0)
            sums[subject] = total
        else:
            sums.setdefault(subject, None)
        held = by_predicate.get(predicate)
        if held:
            at = bisect_left(held, subject)
            was = at < len(held) and held[at] == subject
        else:
            was = False
        if was != bool(values):
            flipped = gained if values else lost
            subjects = flipped.get(predicate)
            if subjects is None:
                flipped[predicate] = [subject]
            else:
                subjects.append(subject)
    # Rebound in place, not popped and re-added: a dict with no
    # deleted slots copies as one block.
    scores = prior.scores.copy()
    gone = []
    new = []
    for subject, total in sums.items():
        old = scores.get(subject)
        if old is not None:
            gone.append((-old, subject))
        if total is not None:
            scores[subject] = total
            new.append((-total, subject))
        elif old is not None:
            del scores[subject]
    by_predicate = by_predicate.copy()
    for predicate in {**gained, **lost}:
        subjects = _replaced(
            by_predicate.get(predicate, ()),
            lost.get(predicate, ()),
            gained.get(predicate, ()),
        )
        if subjects:
            by_predicate[predicate] = tuple(subjects)
        else:
            del by_predicate[predicate]
    return ReadIndex(
        scores, _replaced(prior.ranking, gone, new), by_predicate
    )
