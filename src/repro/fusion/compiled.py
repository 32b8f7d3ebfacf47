"""Compiled claim matrices: flat-array fusion inner loops.

The iterative fusion methods spend every fixed-point round re-walking
Python dicts of :class:`~repro.fusion.base.Claim` objects — attribute
chasing, per-claim ``math.log`` calls, and per-round set construction
dominate their profiles long before the arithmetic does.  This module
"compiles" a :class:`ClaimSet` once into integer-indexed flat arrays
(interned item/value/source ids, ``array('d')`` confidence
vectors, CSR-style offset tables) shared by every method, so per-round
updates become tight loops over parallel arrays.  The compilation
walks the set's item runs (:meth:`ClaimSet.runs`): an item with one
claim — most are — appends its pair and its one cover slot directly,
a longer run is grouped by value on the spot, and a claim's place in
claim order comes from :meth:`ClaimSet.positions`, so no claim is
looked up in any table.

Exactness contract
------------------
The kernels replay the *exact float operation order* of the dict-loop
reference implementations (``tests/oracles/fusion_loops.py``, "the
legacy code" below): items in ``claims.items()`` order, values in
``values_of`` insertion order, claims in ``ClaimSet`` insertion order,
covering sources in the same set-iteration order the legacy code
observes in this process.  Per-source logarithms are hoisted out of
the claim loop only where the legacy code computes the same value
repeatedly (``log`` of identical inputs is deterministic), never where
it would reorder an accumulation.  Multi-truth's products are hoisted
the same way — ``weight * confidence`` is fixed for a fuse and
``weight * log_silent`` for a round, and the legacy expression
multiplies left to right, so the hoisted factor is the float it would
have formed — and who claims what is decided once, into the cover-slot
tables of :class:`CompiledClaims`, not probed per (pair, source,
round).  Its four per-source soft counts are fed by separate loops;
each adds, per source, in the legacy loop's item → pair order.
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
from math import exp, log

from repro.fusion.base import (
    ClaimSet,
    FusionResult,
    Item,
    claiming_sources,
)

__all__ = [
    "CompiledClaims",
    "compile_claims",
    "accu_fuse",
    "multitruth_fuse",
    "gensums_fuse",
    "investment_fuse",
]


@dataclass(slots=True)
class CompiledClaims:
    """A :class:`ClaimSet` flattened into parallel integer-indexed arrays.

    A *pair* is one ``(item, value)`` candidate; pairs are contiguous
    per item, claims are contiguous per pair, and the CSR offset
    tables below index them without any hashing:

    - ``item_pair_start[i] : item_pair_start[i + 1]`` — item *i*'s pairs;
    - ``pair_claim_start[p] : pair_claim_start[p + 1]`` — indices into
      ``pair_claim_source`` / ``pair_claim_conf`` of the claims
      asserting pair *p*, in ``ClaimSet`` insertion order.

    Multi-truth judges every pair against every source covering the
    pair's item, so its tables hold one *cover slot* per (pair,
    covering source), flat, in item → pair → covering-source order
    (the legacy set-iteration order of ``sources_claiming(item)``) —
    the order its log-odds sum and its per-source soft counts add in:

    - ``cover_pair[t]`` / ``cover_source[t]`` — slot *t*'s pair and
      source; ``cover_conf[t]`` — the source's maximum claim
      confidence on that pair, ``None`` where it is silent on it;
    - ``claimed_pair`` / ``claimed_source`` and ``silent_pair`` /
      ``silent_source`` — the slots split by that, each in slot order.
      A source silent on a pair claims another value of the item, so
      every silent slot belongs to a contested item.
    """

    items: list[Item]
    sources: list[str]
    pair_item: list[int]
    pair_value: list[str]
    item_pair_start: list[int]
    claim_pair: list[int]
    claim_source: list[int]
    claim_conf: array
    pair_claim_start: list[int]
    # Per-pair views of claim_source / claim_conf, gathered once at
    # compile time: one less indirection in the vote/score hot loops.
    pair_claim_source: list[int]
    pair_claim_conf: array
    cover_pair: list[int]
    cover_source: list[int]
    cover_conf: list[float | None]
    claimed_pair: list[int]
    claimed_source: list[int]
    silent_pair: list[int]
    silent_source: list[int]

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_pairs(self) -> int:
        return len(self.pair_item)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def n_claims(self) -> int:
        return len(self.claim_pair)

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


def compile_claims(claims: ClaimSet) -> CompiledClaims:
    """One-pass compilation of a claim set into flat arrays."""
    source_id: dict[str, int] = {}
    order = list(claims)
    claim_source = [
        source_id.setdefault(claim.source_id, len(source_id))
        for claim in order
    ]
    claim_conf = array("d", [claim.confidence for claim in order])
    claim_pair = [0] * len(order)

    items: list[Item] = []
    pair_item: list[int] = []
    pair_value: list[str] = []
    item_pair_start = [0]
    pair_claim_start = [0]
    pair_claim_ids: list[int] = []
    cover_pair: list[int] = []
    cover_source: list[int] = []
    cover_conf: list[float | None] = []
    claimed_pair: list[int] = []
    claimed_source: list[int] = []
    silent_pair: list[int] = []
    silent_source: list[int] = []
    positions = claims.positions()
    done = 0  # claims of the runs walked so far
    for item, run in claims.runs():
        item_idx = len(items)
        items.append(item)
        if len(run) == 1:
            # Most items: one claim, so one pair and one cover slot.
            index = positions[done]
            pair = len(pair_item)
            pair_item.append(item_idx)
            pair_value.append(run[0].value)
            claim_pair[index] = pair
            pair_claim_ids.append(index)
            source = claim_source[index]
            cover_pair.append(pair)
            cover_source.append(source)
            cover_conf.append(max(0.0, run[0].confidence))
            claimed_pair.append(pair)
            claimed_source.append(source)
            pair_claim_start.append(len(pair_claim_ids))
            item_pair_start.append(len(pair_item))
            done += 1
            continue
        # ``ClaimSet.values_of`` of the run, and beside each claim
        # where it stands in claim order.
        values: dict[str, list] = {}
        indexes: dict[str, list[int]] = {}
        for index, claim in zip(positions[done:done + len(run)], run):
            held = values.get(claim.value)
            if held is None:
                values[claim.value] = [claim]
                indexes[claim.value] = [index]
            else:
                held.append(claim)
                indexes[claim.value].append(index)
        done += len(run)
        # Covering sources in the same set-iteration order the legacy
        # per-round loops observe (stable within one process).
        cover = [source_id[name] for name in claiming_sources(values)]
        for value, value_claims in values.items():
            pair = len(pair_item)
            pair_item.append(item_idx)
            pair_value.append(value)
            claimers: dict[int, float] = {}
            for index, claim in zip(indexes[value], value_claims):
                claim_pair[index] = pair
                pair_claim_ids.append(index)
                source = claim_source[index]
                claimers[source] = max(
                    claimers.get(source, 0.0), claim.confidence
                )
            for source in cover:
                confidence = claimers.get(source)
                cover_pair.append(pair)
                cover_source.append(source)
                cover_conf.append(confidence)
                if confidence is None:
                    silent_pair.append(pair)
                    silent_source.append(source)
                else:
                    claimed_pair.append(pair)
                    claimed_source.append(source)
            pair_claim_start.append(len(pair_claim_ids))
        item_pair_start.append(len(pair_item))

    pair_claim_source = [claim_source[index] for index in pair_claim_ids]
    pair_claim_conf = array(
        "d", (claim_conf[index] for index in pair_claim_ids)
    )

    return CompiledClaims(
        items=items,
        sources=list(source_id),
        pair_item=pair_item,
        pair_value=pair_value,
        item_pair_start=item_pair_start,
        claim_pair=claim_pair,
        claim_source=claim_source,
        claim_conf=claim_conf,
        pair_claim_start=pair_claim_start,
        pair_claim_source=pair_claim_source,
        pair_claim_conf=pair_claim_conf,
        cover_pair=cover_pair,
        cover_source=cover_source,
        cover_conf=cover_conf,
        claimed_pair=claimed_pair,
        claimed_source=claimed_source,
        silent_pair=silent_pair,
        silent_source=silent_source,
    )


# ----------------------------------------------------------------------
# ACCU / POPACCU


def accu_fuse(
    compiled: CompiledClaims,
    *,
    n_false_values: int = 10,
    initial_accuracy: float = 0.8,
    initial_accuracies: dict[str, float] | None = None,
    source_weights: dict[str, float] | None = None,
    max_iterations: int = 20,
    tolerance: float = 1e-4,
    min_accuracy: float = 0.05,
    max_accuracy: float = 0.99,
    popularity: bool = False,
    name: str = "accu",
) -> FusionResult:
    """ACCU (or POPACCU when ``popularity``) over compiled arrays."""
    cc = compiled
    initial_accuracies = initial_accuracies or {}
    source_weights = source_weights or {}
    accuracy = [
        initial_accuracies.get(source, initial_accuracy)
        for source in cc.sources
    ]
    weight = [source_weights.get(source, 1.0) for source in cc.sources]
    uniform_weights = all(w == 1.0 for w in weight)

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
                    if uniform_weights:
                        vote += contribution
                    else:
                        vote += weight[s] * contribution
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


def _single_truths(cc: CompiledClaims, scores, result: FusionResult) -> None:
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
    compiled: CompiledClaims,
    *,
    prior: float = 0.3,
    threshold: float = 0.5,
    initial_sensitivity: float = 0.7,
    initial_specificity: float = 0.9,
    source_weights: dict[str, float] | None = None,
    use_confidence: bool = False,
    max_iterations: int = 20,
    tolerance: float = 1e-4,
    floor: float = 0.02,
    name: str = "multitruth",
) -> FusionResult:
    """Two-sided multi-truth fusion over compiled arrays."""
    cc = compiled
    source_weights = source_weights or {}
    n_sources = cc.n_sources
    weight = [source_weights.get(source, 1.0) for source in cc.sources]
    sensitivity = [initial_sensitivity] * n_sources
    specificity = [initial_specificity] * n_sources
    ceiling = 1.0 - floor

    n_pairs = cc.n_pairs
    item_pair_start = cc.item_pair_start
    cover_pair = cc.cover_pair
    cover_source = cc.cover_source
    # Fixed for the whole fuse, per cover slot: where the slot finds
    # its log-likelihood ratio in this round's ``ratio`` (the weighted
    # silent ratios come first, then the claim ratios) and what
    # multiplies it — a claimer's ``weight * confidence``, or 1.0 for a
    # silent source, whose weight is folded in once per round.
    ratio_at = [
        s if confidence is None else n_sources + s
        for s, confidence in zip(cover_source, cc.cover_conf)
    ]
    factor = [
        1.0 if confidence is None
        else weight[s] * (confidence if use_confidence else 1.0)
        for s, confidence in zip(cover_source, cc.cover_conf)
    ]
    # Per pair: does its item have a second candidate value?
    contested = [
        item_pair_start[item + 1] - item_pair_start[item] >= 2
        for item in cc.pair_item
    ]
    ratio = [0.0] * (2 * n_sources)
    logodds_of = [0.0] * n_pairs
    posterior = [0.0] * n_pairs
    prior_logodds = log(prior / (1.0 - prior))
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

        # A pair's log-odds: its slots' terms added onto the prior in
        # slot order; the last running sum stored is the pair's.
        summing = -1
        for pair, multiplier, at in zip(cover_pair, factor, ratio_at):
            if pair != summing:
                logodds = prior_logodds
                summing = pair
            logodds += multiplier * ratio[at]
            logodds_of[pair] = logodds
        posterior = [1.0 / (1.0 + exp(-logodds)) for logodds in logodds_of]
        # Specificity is informed by contested items only; adding the
        # 0.0 of a single-candidate item leaves a soft count as it is.
        complement = [
            1.0 - probability if both_ways else 0.0
            for probability, both_ways in zip(posterior, contested)
        ]

        # Each soft count has its own loop; every one adds per source
        # in item → pair order, as the legacy single loop does.
        claimed_true = [0.0] * n_sources
        covered_true = [0.0] * n_sources
        silent_false = [0.0] * n_sources
        covered_false = [0.0] * n_sources
        for pair, s in zip(cover_pair, cover_source):
            covered_true[s] += posterior[pair]
            covered_false[s] += complement[pair]
        for pair, s in zip(cc.claimed_pair, cc.claimed_source):
            claimed_true[s] += posterior[pair]
        for pair, s in zip(cc.silent_pair, cc.silent_source):
            silent_false[s] += complement[pair]

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

    result = FusionResult(name)
    result.iterations = iterations
    result.converged_at = converged_at
    result.belief = cc.decode_beliefs(posterior)
    result.source_quality = {
        source: (sensitivity[s] + specificity[s]) / 2.0
        for s, source in enumerate(cc.sources)
    }
    pair_value = cc.pair_value
    for item in range(cc.n_items):
        begin = item_pair_start[item]
        end = item_pair_start[item + 1]
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
        result.decide(cc.items[item], decided)
    return result


# ----------------------------------------------------------------------
# Confidence-weighted fact-finders


def gensums_fuse(
    compiled: CompiledClaims,
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
    compiled: CompiledClaims,
    *,
    growth: float = 1.2,
    max_iterations: int = 20,
    tolerance: float = 1e-6,
    use_confidence: bool = True,
    name: str = "investment",
) -> FusionResult:
    """Investment fact-finder over compiled arrays.

    The per-claim investment shares and the (source, pair) stake slots
    are structural — they never change across rounds — so they are
    compiled once; each round is then two passes over flat arrays.
    """
    cc = compiled
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
        claim_share[index] = weight / totals[claim_source[index]]
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
