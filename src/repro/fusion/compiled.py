"""Compiled claim tables: flat-array fusion inner loops.

The iterative fusion methods spend every fixed-point round re-walking
Python dicts of :class:`~repro.fusion.base.Claim` objects — attribute
chasing, per-claim ``math.log`` calls, and per-round set construction
dominate their profiles long before the arithmetic does.  This module
"compiles" a :class:`ClaimSet` once per fuse into integer-indexed flat
arrays (interned item/value/source ids, ``array('d')`` confidence
vectors, CSR-style offset tables), so per-round updates become tight
loops over parallel arrays.  Each kernel compiles only what it reads:
the vote kernels (ACCU, POPACCU, GenSums, Investment) the claims of
each pair (:func:`compile_votes`), multi-truth its evidence classes
(:func:`compile_evidence`); both build the same pair tables.  Each
compile walks the set's item spans in place (:meth:`ClaimSet.spans`):
no span is sliced, and a claim's index is its place in the set's claim
order, so no claim is looked up in any table.

Exactness contract
------------------
The kernels replay the *exact float operation order* of the dict-loop
reference implementations (``tests/oracles/fusion_loops.py``, "the
legacy code" below): items in ``claims.items()`` order, values in
``values_of`` order, claims in ``ClaimSet`` order, covering sources
in ``sources_claiming`` order.  Per-source logarithms are hoisted out of
the claim loop only where the legacy code computes the same value
repeatedly (``log`` of identical inputs is deterministic), never where
it would reorder an accumulation.  Multi-truth's products are hoisted
the same way — ``weight * confidence`` is fixed for a fuse and
``weight * log_silent`` for a round, and the legacy expression
multiplies left to right, so the hoisted factor is the float it would
have formed — and who claims what is decided once, into the tables of
:class:`EvidenceTables`, not probed per (pair, source, round).

Multi-truth shares work only where the floats are provably the same.
A pair's log-odds, posterior and complement depend on nothing but its
*evidence* — the ``(source, cover confidence)`` sequence of its cover
slots — so a round computes them once per evidence class and every
pair of the class reads the class's floats: the ones the legacy loop
would have formed for each of them.  The four per-source soft counts
are *not* shared: each source adds its slots' values one by one in
the legacy loop's item → pair order, because a float sum reordered,
grouped or multiplied out changes its bits.  The two false counts
skip the slots of one-value items, whose 0.0 leaves a non-negative sum
as it is.  Classes are keyed by evidence, never by weights, so one
compile serves any ``source_weights`` / ``use_confidence``.

Each model's fixed parameters are the module constants below, read by
the kernel (bound to a local at its top) and by the reference loops
alike; they are the values every table of the reproduction runs at.

Truths, iteration counts, beliefs and source qualities are therefore
equal to the reference's (asserted with ``==`` by the equivalence
suites).

Every compiled method reports ``converged_at`` — the round whose
parameter delta dropped under ``tolerance`` — in the
:class:`FusionResult`; ``tolerance=0`` disables the early exit.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import count
from math import exp, log
from operator import attrgetter

from repro.fusion.base import (
    Claim,
    ClaimSet,
    FusionResult,
    Item,
    claiming_sources,
)

__all__ = [
    "VoteTables",
    "EvidenceTables",
    "compile_votes",
    "compile_evidence",
    "accu_fuse",
    "multitruth_fuse",
    "gensums_fuse",
    "investment_fuse",
]

#: ACCU's ``n``: the uniformly likely false values of an item.
ACCU_FALSE_VALUES = 10
#: The accuracy a source starts from without a calibrated one.
ACCU_INITIAL_ACCURACY = 0.8
#: The range a source accuracy is clamped to, so no vote is infinite.
ACCU_MIN_ACCURACY = 0.05
ACCU_MAX_ACCURACY = 0.99
#: Multi-truth's prior probability that a candidate value is true.
MULTITRUTH_PRIOR = 0.3
#: The posterior at or above which a candidate value is a truth.
MULTITRUTH_THRESHOLD = 0.5
#: The sensitivity and specificity a source starts from; the
#: re-estimates are smoothed toward them.
MULTITRUTH_INITIAL_SENSITIVITY = 0.7
MULTITRUTH_INITIAL_SPECIFICITY = 0.9
#: Sensitivity and specificity are clamped to ``[floor, 1 - floor]``.
MULTITRUTH_FLOOR = 0.02
#: Investment's belief exponent on invested credit (convex above 1).
INVESTMENT_GROWTH = 1.2

_source_of = attrgetter("source_id")


@dataclass(slots=True)
class PairTables:
    """The tables both compiles share: a *pair* is one ``(item, value)``
    candidate, pairs are contiguous per item, and
    ``item_pair_start[i] : item_pair_start[i + 1]`` are item *i*'s
    pairs.  Sources are numbered in first-claim order."""

    items: list[Item]
    sources: list[str]
    pair_item: list[int]
    pair_value: list[str]
    item_pair_start: list[int]

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_pairs(self) -> int:
        return len(self.pair_item)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    def pair_key(self, pair: int) -> tuple[Item, str]:
        """The ``(item, value)`` belief key of one pair."""
        return self.items[self.pair_item[pair]], self.pair_value[pair]

    def item_pairs(self, item: int) -> range:
        return range(self.item_pair_start[item], self.item_pair_start[item + 1])

    def decode_beliefs(self, scores) -> dict[tuple[Item, str], float]:
        items, pair_item, pair_value = self.items, self.pair_item, self.pair_value
        return {
            (items[pair_item[p]], pair_value[p]): scores[p]
            for p in range(len(pair_item))
        }

    def decode_quality(self, scores) -> dict[str, float]:
        return {name: scores[s] for s, name in enumerate(self.sources)}


@dataclass(slots=True)
class VoteTables(PairTables):
    """The pair tables plus the claims of each pair, for the kernels
    that vote claim by claim (ACCU, POPACCU, GenSums, Investment).

    - ``claim_pair`` / ``claim_source`` / ``claim_conf`` — per claim,
      in ``ClaimSet`` order;
    - ``pair_claim_start[p] : pair_claim_start[p + 1]`` — indices into
      ``pair_claim_source`` / ``pair_claim_conf`` of the claims
      asserting pair *p*, in ``ClaimSet`` order (gathered once here:
      one less indirection in the vote/score hot loops).
    """

    claim_pair: list[int]
    claim_source: list[int]
    claim_conf: array
    pair_claim_start: list[int]
    pair_claim_source: list[int]
    pair_claim_conf: array

    @property
    def n_claims(self) -> int:
        return len(self.claim_pair)


@dataclass(slots=True)
class EvidenceTables(PairTables):
    """The pair tables plus multi-truth's evidence, which judges every
    pair against every source covering the pair's item: one *cover
    slot* per (pair, covering source), in item → pair → covering-source
    order (the order of ``sources_claiming(item)``), holding the
    source's maximum claim confidence on the pair, or ``None`` where it
    is silent on it.  A pair's *evidence* is its slots' ``(source,
    cover confidence)`` sequence, and that alone fixes its log-odds,
    posterior and complement, so the tables store each *evidence
    class* once:

    - ``pair_class[p]`` — pair *p*'s class.  A pair of an item with
      one candidate value (most are) shares its class with every such
      pair of equal evidence; a pair of a contested item has a class
      of its own (contested evidence rarely repeats, and keying it
      would cost more than it saves);
    - ``evidence_class`` / ``evidence_source`` / ``evidence_conf`` —
      each class's slots in cover order, classes contiguous and in id
      order.

    The per-source soft counts, though, must add pair by pair in slot
    order (reordering a float sum changes its bits), so each source
    keeps the classes of its slots in that order, one list per source
    and count:

    - ``cover_classes[s]`` — every slot of *s*;
    - ``claimed_classes[s]`` / ``silent_classes[s]`` — the slots where
      *s* claims the pair / is silent on it.  A source silent on a pair
      claims another value of the item, so every silent slot belongs
      to a contested item;
    - ``contested_classes[s]`` — the slots of *s* on contested items.
    """

    pair_class: list[int]
    evidence_class: list[int]
    evidence_source: list[int]
    evidence_conf: list[float | None]
    cover_classes: list[list[int]]
    claimed_classes: list[list[int]]
    silent_classes: list[list[int]]
    contested_classes: list[list[int]]

    @property
    def n_classes(self) -> int:
        return self.evidence_class[-1] + 1 if self.evidence_class else 0


def _source_ids(claims: list[Claim]) -> dict[str, int]:
    """Source name → id, numbered in first-claim order."""
    return dict(zip(dict.fromkeys(map(_source_of, claims)), count()))


def compile_votes(claims: ClaimSet) -> VoteTables:
    """The vote kernels' tables, in one walk of the set's item spans."""
    items, order, starts = claims.spans()
    source_id = _source_ids(order)
    claim_source = list(map(source_id.__getitem__, map(_source_of, order)))
    claim_conf = array("d", [claim.confidence for claim in order])
    claim_pair = [0] * len(order)
    pair_item: list[int] = []
    pair_value: list[str] = []
    item_pair_start = [0]
    pair_claim_start = [0]
    pair_claim_ids: list[int] = []
    for item_idx, begin, end in zip(count(), starts, starts[1:]):
        # The claim indexes of each value, values in first-claimed
        # order (``ClaimSet.values_of``).
        indexes: dict[str, list[int]] = {}
        for index in range(begin, end):
            indexes.setdefault(order[index].value, []).append(index)
        for value, value_indexes in indexes.items():
            for index in value_indexes:
                claim_pair[index] = len(pair_item)
            pair_item.append(item_idx)
            pair_value.append(value)
            pair_claim_ids += value_indexes
            pair_claim_start.append(len(pair_claim_ids))
        item_pair_start.append(len(pair_item))

    return VoteTables(
        items, list(source_id), pair_item, pair_value, item_pair_start,
        claim_pair, claim_source, claim_conf, pair_claim_start,
        [claim_source[index] for index in pair_claim_ids],
        array("d", (claim_conf[index] for index in pair_claim_ids)),
    )


def compile_evidence(claims: ClaimSet) -> EvidenceTables:
    """Multi-truth's tables, in one walk of the set's item spans: an
    item with one claim — most are — appends its pair and finds its
    one-slot evidence class directly, a longer span is grouped by value
    on the spot."""
    items, order, starts = claims.spans()
    source_id = _source_ids(order)
    pair_item: list[int] = []
    pair_value: list[str] = []
    item_pair_start = [0]
    pair_class: list[int] = []
    evidence_class: list[int] = []
    evidence_source: list[int] = []
    evidence_conf: list[float | None] = []
    cover_classes: list[list[int]] = [[] for _ in source_id]
    claimed_classes: list[list[int]] = [[] for _ in source_id]
    silent_classes: list[list[int]] = [[] for _ in source_id]
    contested_classes: list[list[int]] = [[] for _ in source_id]
    # The classes of one-value items by evidence: one slot's per source
    # by confidence; a longer one's laid flat, the cover sources in
    # order, then their confidences in the same order.
    lone_class: list[dict[float, int]] = [{} for _ in source_id]
    class_of: dict[tuple, int] = {}
    n_classes = 0
    for item_idx, begin, end in zip(count(), starts, starts[1:]):
        if end - begin == 1:
            # Most items: one claim, so one pair and one cover slot.
            claim = order[begin]
            pair_item.append(item_idx)
            pair_value.append(claim.value)
            source = source_id[claim.source_id]
            confidence = claim.confidence
            if not confidence > 0.0:  # max(0.0, confidence), no call
                confidence = 0.0
            lone = lone_class[source]
            evidence = lone.get(confidence)
            if evidence is None:
                evidence = lone[confidence] = n_classes
                n_classes += 1
                evidence_class.append(evidence)
                evidence_source.append(source)
                evidence_conf.append(confidence)
            pair_class.append(evidence)
            cover_classes[source].append(evidence)
            claimed_classes[source].append(evidence)
            item_pair_start.append(len(pair_item))
            continue
        # ``ClaimSet.values_of`` of the span.
        values: dict[str, list[Claim]] = {}
        for index in range(begin, end):
            claim = order[index]
            held = values.get(claim.value)
            if held is None:
                values[claim.value] = [claim]
            else:
                held.append(claim)
        # Covering sources in ``sources_claiming`` order, as the
        # reference loops walk them.
        cover = [source_id[name] for name in claiming_sources(values)]
        contested = len(values) >= 2
        for value, value_claims in values.items():
            pair_item.append(item_idx)
            pair_value.append(value)
            claimers: dict[int, float] = {}
            for claim in value_claims:
                source = source_id[claim.source_id]
                held = claimers.get(source, 0.0)
                confidence = claim.confidence
                claimers[source] = confidence if confidence > held else held
            if contested:
                evidence = n_classes
                n_classes += 1
                for source in cover:
                    confidence = claimers.get(source)
                    evidence_class.append(evidence)
                    evidence_source.append(source)
                    evidence_conf.append(confidence)
                    cover_classes[source].append(evidence)
                    contested_classes[source].append(evidence)
                    if confidence is None:
                        silent_classes[source].append(evidence)
                    else:
                        claimed_classes[source].append(evidence)
            else:
                # One value: every covering source claims it.
                if len(cover) == 1:
                    table, key = lone_class[cover[0]], claimers[cover[0]]
                else:
                    table = class_of
                    key = (*cover, *map(claimers.__getitem__, cover))
                evidence = table.get(key)
                if evidence is None:
                    evidence = table[key] = n_classes
                    n_classes += 1
                    for source in cover:
                        evidence_class.append(evidence)
                        evidence_source.append(source)
                        evidence_conf.append(claimers[source])
                for source in cover:
                    cover_classes[source].append(evidence)
                    claimed_classes[source].append(evidence)
            pair_class.append(evidence)
        item_pair_start.append(len(pair_item))

    return EvidenceTables(
        items, list(source_id), pair_item, pair_value, item_pair_start,
        pair_class, evidence_class, evidence_source, evidence_conf,
        cover_classes, claimed_classes, silent_classes, contested_classes,
    )


# ----------------------------------------------------------------------
# ACCU / POPACCU


def accu_fuse(
    compiled: VoteTables,
    *,
    initial_accuracies: dict[str, float] | None = None,
    max_iterations: int = 20,
    tolerance: float = 1e-4,
    popularity: bool = False,
    name: str = "accu",
) -> FusionResult:
    """ACCU (or POPACCU when ``popularity``) over compiled arrays."""
    cc = compiled
    n_false_values = ACCU_FALSE_VALUES
    min_accuracy = ACCU_MIN_ACCURACY
    max_accuracy = ACCU_MAX_ACCURACY
    initial_accuracies = initial_accuracies or {}
    accuracy = [
        initial_accuracies.get(source, ACCU_INITIAL_ACCURACY)
        for source in cc.sources
    ]

    n_pairs = cc.n_pairs
    probabilities = array("d", bytes(8 * n_pairs))
    votes = array("d", bytes(8 * n_pairs))
    pair_start = cc.pair_claim_start
    pair_source = cc.pair_claim_source
    claim_source = cc.claim_source
    claim_pair = cc.claim_pair
    item_pair_start = cc.item_pair_start
    n_items = cc.n_items
    n_sources = cc.n_sources
    term = [0.0] * n_sources

    iterations = 0
    converged_at: int | None = None
    for iterations in range(1, max_iterations + 1):
        if not popularity:
            # The legacy loop calls log(n * a / (1 - a)) per *claim*;
            # the input only varies per source, so hoist it (same
            # float, computed once).
            for s in range(n_sources):
                clamped = accuracy[s]
                if clamped < min_accuracy:
                    clamped = min_accuracy
                elif clamped > max_accuracy:
                    clamped = max_accuracy
                term[s] = log(n_false_values * clamped / (1.0 - clamped))

        for item in range(n_items):
            begin = item_pair_start[item]
            end = item_pair_start[item + 1]
            if popularity:
                total_claims = pair_start[end] - pair_start[begin]
                competing = 0.0
                for pair in range(begin, end):
                    share = (
                        pair_start[pair + 1] - pair_start[pair]
                    ) / total_claims
                    competing += share * share
                effective_n = max(1.0, 1.0 / competing)
            top = None
            for pair in range(begin, end):
                vote = 0.0
                for index in range(pair_start[pair], pair_start[pair + 1]):
                    s = pair_source[index]
                    if popularity:
                        clamped = accuracy[s]
                        if clamped < min_accuracy:
                            clamped = min_accuracy
                        elif clamped > max_accuracy:
                            clamped = max_accuracy
                        contribution = log(
                            effective_n * clamped / (1.0 - clamped)
                        )
                    else:
                        contribution = term[s]
                    vote += contribution
                if popularity:
                    share = (
                        pair_start[pair + 1] - pair_start[pair]
                    ) / total_claims
                    vote *= 1.0 - 0.5 * share
                votes[pair] = vote
                if top is None or vote > top:
                    top = vote
            total = 0.0
            for pair in range(begin, end):
                shifted = exp(votes[pair] - top)
                votes[pair] = shifted
                total += shifted
            for pair in range(begin, end):
                probabilities[pair] = votes[pair] / total

        sums = [0.0] * n_sources
        counts = [0] * n_sources
        for index in range(cc.n_claims):
            s = claim_source[index]
            sums[s] += probabilities[claim_pair[index]]
            counts[s] += 1
        delta = 0.0
        for s in range(n_sources):
            estimate = sums[s] / counts[s]
            if estimate < min_accuracy:
                estimate = min_accuracy
            elif estimate > max_accuracy:
                estimate = max_accuracy
            difference = abs(estimate - accuracy[s])
            if difference > delta:
                delta = difference
            accuracy[s] = estimate
        if delta < tolerance:
            converged_at = iterations
            break

    result = FusionResult(name)
    result.iterations = iterations
    result.converged_at = converged_at
    result.source_quality = cc.decode_quality(accuracy)
    result.belief = cc.decode_beliefs(probabilities)
    _single_truths(cc, probabilities, result)
    return result


def _single_truths(cc: VoteTables, scores, result: FusionResult) -> None:
    """Per item, pick the best-scoring value (ties break on the key)."""
    pair_value = cc.pair_value
    for item in range(cc.n_items):
        best_pair = cc.item_pair_start[item]
        best = (-scores[best_pair], pair_value[best_pair])
        for pair in range(best_pair + 1, cc.item_pair_start[item + 1]):
            key = (-scores[pair], pair_value[pair])
            if key < best:
                best = key
        result.decide(cc.items[item], [best[1]])


# ----------------------------------------------------------------------
# Multi-truth


def multitruth_fuse(
    compiled: EvidenceTables,
    *,
    source_weights: dict[str, float] | None = None,
    use_confidence: bool = False,
    max_iterations: int = 20,
    tolerance: float = 1e-4,
    name: str = "multitruth",
) -> FusionResult:
    """Two-sided multi-truth fusion over compiled arrays."""
    cc = compiled
    threshold = MULTITRUTH_THRESHOLD
    initial_sensitivity = MULTITRUTH_INITIAL_SENSITIVITY
    initial_specificity = MULTITRUTH_INITIAL_SPECIFICITY
    floor = MULTITRUTH_FLOOR
    source_weights = source_weights or {}
    n_sources = cc.n_sources
    weight = [source_weights.get(source, 1.0) for source in cc.sources]
    sensitivity = [initial_sensitivity] * n_sources
    specificity = [initial_specificity] * n_sources
    ceiling = 1.0 - floor

    item_pair_start = cc.item_pair_start
    evidence_class = cc.evidence_class
    evidence_source = cc.evidence_source
    # Fixed for the whole fuse, per evidence slot: where the slot finds
    # its log-likelihood ratio in this round's ``ratio`` (the weighted
    # silent ratios come first, then the claim ratios) and what
    # multiplies it — a claimer's ``weight * confidence``, or 1.0 for a
    # silent source, whose weight is folded in once per round.
    ratio_at = [
        s if confidence is None else n_sources + s
        for s, confidence in zip(evidence_source, cc.evidence_conf)
    ]
    factor = [
        1.0 if confidence is None
        else weight[s] * (confidence if use_confidence else 1.0)
        for s, confidence in zip(evidence_source, cc.evidence_conf)
    ]
    ratio = [0.0] * (2 * n_sources)
    logodds_of = [0.0] * cc.n_classes
    posterior = [0.0] * cc.n_classes
    prior_logodds = log(MULTITRUTH_PRIOR / (1.0 - MULTITRUTH_PRIOR))
    smoothing = 2.0

    iterations = 0
    converged_at: int | None = None
    for iterations in range(1, max_iterations + 1):
        # Per-source log-likelihood ratios for this round (the legacy
        # loop recomputes these logs per (value, source) visit).
        for s in range(n_sources):
            sens = sensitivity[s]
            if sens < floor:
                sens = floor
            elif sens > ceiling:
                sens = ceiling
            spec = specificity[s]
            if spec < floor:
                spec = floor
            elif spec > ceiling:
                spec = ceiling
            ratio[s] = weight[s] * log((1.0 - sens) / spec)
            ratio[n_sources + s] = log(sens / (1.0 - spec))

        # A class's log-odds: its slots' terms added onto the prior in
        # cover order; the last running sum stored is the class's.
        summing = -1
        for evidence, multiplier, at in zip(evidence_class, factor, ratio_at):
            if evidence != summing:
                logodds = prior_logodds
                summing = evidence
            logodds += multiplier * ratio[at]
            logodds_of[evidence] = logodds
        posterior = [1.0 / (1.0 + exp(-logodds)) for logodds in logodds_of]
        complement = [1.0 - probability for probability in posterior]

        # The soft counts add per source in slot order, as the legacy
        # single loop does.  Specificity is informed by contested items
        # only, so the false counts skip the other slots (adding their
        # 0.0 would leave a non-negative sum as it is).
        claimed_true = _sums_in_order(cc.claimed_classes, posterior)
        covered_true = _sums_in_order(cc.cover_classes, posterior)
        silent_false = _sums_in_order(cc.silent_classes, complement)
        covered_false = _sums_in_order(cc.contested_classes, complement)

        delta = 0.0
        for s in range(n_sources):
            sens = (claimed_true[s] + smoothing * initial_sensitivity) / (
                covered_true[s] + smoothing
            )
            if sens < floor:
                sens = floor
            elif sens > ceiling:
                sens = ceiling
            spec = (silent_false[s] + smoothing * initial_specificity) / (
                covered_false[s] + smoothing
            )
            if spec < floor:
                spec = floor
            elif spec > ceiling:
                spec = ceiling
            difference = abs(sens - sensitivity[s])
            if difference > delta:
                delta = difference
            difference = abs(spec - specificity[s])
            if difference > delta:
                delta = difference
            sensitivity[s] = sens
            specificity[s] = spec
        if delta < tolerance:
            converged_at = iterations
            break

    posterior = [posterior[evidence] for evidence in cc.pair_class]
    result = FusionResult(name)
    result.iterations = iterations
    result.converged_at = converged_at
    result.belief = cc.decode_beliefs(posterior)
    result.source_quality = {
        source: (sensitivity[s] + specificity[s]) / 2.0
        for s, source in enumerate(cc.sources)
    }
    pair_value = cc.pair_value
    for item, begin, end in zip(cc.items, item_pair_start, item_pair_start[1:]):
        if end - begin == 1:
            # A lone candidate is the truth whatever its posterior.
            result.decide(item, [pair_value[begin]])
            continue
        decided = [
            pair_value[pair]
            for pair in range(begin, end)
            if posterior[pair] >= threshold
        ]
        if not decided:
            best = (-posterior[begin], pair_value[begin])
            for pair in range(begin + 1, end):
                key = (-posterior[pair], pair_value[pair])
                if key < best:
                    best = key
            decided = [best[1]]
        result.decide(item, decided)
    return result


def _sums_in_order(
    sequences: list[list[int]], values: list[float]
) -> list[float]:
    """Per sequence of indexes, its values added left to right onto 0.0."""
    sums = []
    for sequence in sequences:
        total = 0.0
        for index in sequence:
            total += values[index]
        sums.append(total)
    return sums


# ----------------------------------------------------------------------
# Confidence-weighted fact-finders


def gensums_fuse(
    compiled: VoteTables,
    *,
    max_iterations: int = 20,
    tolerance: float = 1e-6,
    use_confidence: bool = True,
    name: str = "gensums",
) -> FusionResult:
    """Generalized Sums (Hubs & Authorities) over compiled arrays."""
    cc = compiled
    n_sources = cc.n_sources
    trust = [1.0] * n_sources
    n_pairs = cc.n_pairs
    belief = array("d", bytes(8 * n_pairs))
    pair_start = cc.pair_claim_start
    pair_source = cc.pair_claim_source
    pair_conf = cc.pair_claim_conf
    claim_source = cc.claim_source
    claim_pair = cc.claim_pair
    claim_conf = cc.claim_conf
    item_pair_start = cc.item_pair_start

    iterations = 0
    converged_at: int | None = None
    for iterations in range(1, max_iterations + 1):
        for item in range(cc.n_items):
            begin = item_pair_start[item]
            end = item_pair_start[item + 1]
            top = 0.0
            for pair in range(begin, end):
                score = 0
                for index in range(pair_start[pair], pair_start[pair + 1]):
                    if use_confidence:
                        score = score + trust[pair_source[index]] * pair_conf[index]
                    else:
                        score = score + trust[pair_source[index]]
                belief[pair] = score
                if score > top:
                    top = score
            if top <= 0.0:
                for pair in range(begin, end):
                    belief[pair] = 0.0
            else:
                for pair in range(begin, end):
                    belief[pair] = belief[pair] / top

        new_trust = [0.0] * n_sources
        for index in range(cc.n_claims):
            s = claim_source[index]
            if use_confidence:
                new_trust[s] += claim_conf[index] * belief[claim_pair[index]]
            else:
                new_trust[s] += belief[claim_pair[index]]
        top = max(new_trust) or 1.0
        delta = 0.0
        for s in range(n_sources):
            scaled = new_trust[s] / top
            difference = abs(scaled - trust[s])
            if difference > delta:
                delta = difference
            trust[s] = scaled
        if delta < tolerance:
            converged_at = iterations
            break

    result = FusionResult(name)
    result.iterations = iterations
    result.converged_at = converged_at
    result.belief = cc.decode_beliefs(belief)
    result.source_quality = cc.decode_quality(trust)
    _single_truths(cc, belief, result)
    return result


def investment_fuse(
    compiled: VoteTables,
    *,
    max_iterations: int = 20,
    tolerance: float = 1e-6,
    use_confidence: bool = True,
    name: str = "investment",
) -> FusionResult:
    """Investment fact-finder over compiled arrays.

    The per-claim investment shares and the (source, pair) stake slots
    are structural — they never change across rounds — so they are
    compiled once; each round is then two passes over flat arrays.  A
    source whose claims weigh 0.0 in total (every confidence 0.0)
    stakes nothing: its shares are 0.0.
    """
    cc = compiled
    growth = INVESTMENT_GROWTH
    n_sources = cc.n_sources
    n_claims = cc.n_claims
    claim_source = cc.claim_source
    claim_pair = cc.claim_pair
    claim_conf = cc.claim_conf

    totals = [0.0] * n_sources
    for index in range(n_claims):
        totals[claim_source[index]] += (
            claim_conf[index] if use_confidence else 1.0
        )
    claim_share = array("d", bytes(8 * n_claims))
    # Stake slots in first-occurrence order over the global claim
    # order — the exact insertion order of the legacy ``stake`` dict.
    slot_of: dict[tuple[int, int], int] = {}
    claim_slot = [0] * n_claims
    slot_source: list[int] = []
    slot_pair: list[int] = []
    for index in range(n_claims):
        weight = claim_conf[index] if use_confidence else 1.0
        total = totals[claim_source[index]]
        claim_share[index] = weight / total if total else 0.0
        key = (claim_source[index], claim_pair[index])
        slot = slot_of.get(key)
        if slot is None:
            slot = len(slot_of)
            slot_of[key] = slot
            slot_source.append(key[0])
            slot_pair.append(key[1])
        claim_slot[index] = slot
    n_slots = len(slot_of)

    trust = [1.0] * n_sources
    n_pairs = cc.n_pairs
    invested = array("d", bytes(8 * n_pairs))
    belief = array("d", bytes(8 * n_pairs))
    stake = array("d", bytes(8 * n_slots))
    item_pair_start = cc.item_pair_start

    iterations = 0
    converged_at: int | None = None
    for iterations in range(1, max_iterations + 1):
        for pair in range(n_pairs):
            invested[pair] = 0.0
        for slot in range(n_slots):
            stake[slot] = 0.0
        for index in range(n_claims):
            credit = trust[claim_source[index]] * claim_share[index]
            invested[claim_pair[index]] += credit
            stake[claim_slot[index]] += credit
        for pair in range(n_pairs):
            belief[pair] = invested[pair] ** growth
        for item in range(cc.n_items):
            begin = item_pair_start[item]
            end = item_pair_start[item + 1]
            top = belief[begin]
            for pair in range(begin + 1, end):
                if belief[pair] > top:
                    top = belief[pair]
            if top <= 0.0:
                for pair in range(begin, end):
                    belief[pair] = 0.0
            else:
                for pair in range(begin, end):
                    belief[pair] = belief[pair] / top

        new_trust = [0.0] * n_sources
        for slot in range(n_slots):
            pair = slot_pair[slot]
            if invested[pair] > 0:
                new_trust[slot_source[slot]] += (
                    belief[pair] * stake[slot] / invested[pair]
                )
        top = max(new_trust) or 1.0
        delta = 0.0
        for s in range(n_sources):
            scaled = new_trust[s] / top
            difference = abs(scaled - trust[s])
            if difference > delta:
                delta = difference
            trust[s] = scaled
        if delta < tolerance:
            converged_at = iterations
            break

    result = FusionResult(name)
    result.iterations = iterations
    result.converged_at = converged_at
    result.belief = cc.decode_beliefs(belief)
    result.source_quality = cc.decode_quality(trust)
    _single_truths(cc, belief, result)
    return result
