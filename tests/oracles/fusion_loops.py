"""The dict-loop fusion methods ``repro.fusion.compiled`` replaced.

ACCU, POPACCU, multi-truth, generalized Sums and Investment as they
were written first: every fixed-point round walks the
:class:`~repro.fusion.base.ClaimSet` dicts claim by claim.  The
flat-array kernels in ``src/`` replay the same float operations in the
same order, so the equivalence suites compare against these with
``==`` — truths, iteration counts, beliefs, source quality and
``canonical_bytes()``.

Each oracle subclasses its ``src/`` method (constructor, validation and
parameters are shared) and overrides ``fuse()`` with the loops, moved
here unchanged from ``src/repro/fusion/{accu,multitruth,
confidence_weighted}.py`` but for the model constants, which both
sides read from :mod:`repro.fusion.compiled`, and Investment's
zero-total source, which stakes nothing on both.
"""

from __future__ import annotations

import math

from repro.fusion.accu import Accu, PopAccu
from repro.fusion.base import ClaimSet, FusionResult, Item, normalize_beliefs
from repro.fusion.compiled import (
    ACCU_FALSE_VALUES,
    ACCU_INITIAL_ACCURACY,
    ACCU_MAX_ACCURACY,
    ACCU_MIN_ACCURACY,
    INVESTMENT_GROWTH,
    MULTITRUTH_FLOOR,
    MULTITRUTH_INITIAL_SENSITIVITY,
    MULTITRUTH_INITIAL_SPECIFICITY,
    MULTITRUTH_PRIOR,
    MULTITRUTH_THRESHOLD,
)
from repro.fusion.confidence_weighted import GeneralizedSums, Investment
from repro.fusion.multitruth import MultiTruth

__all__ = [
    "AccuLoops",
    "PopAccuLoops",
    "MultiTruthLoops",
    "GeneralizedSumsLoops",
    "InvestmentLoops",
    "PAIRS",
    "assert_same_result",
]


def assert_same_result(result: FusionResult, reference: FusionResult) -> None:
    """Exact equality of everything a :class:`FusionResult` carries."""
    assert result.method == reference.method
    assert result.truths == reference.truths
    assert result.iterations == reference.iterations
    assert result.converged_at == reference.converged_at
    assert result.belief == reference.belief
    assert result.source_quality == reference.source_quality
    assert result.canonical_bytes() == reference.canonical_bytes()


class AccuLoops(Accu):
    """ACCU over the claim dicts."""

    def fuse(self, claims: ClaimSet) -> FusionResult:
        self._check_nonempty(claims)
        accuracy = {
            source: self.initial_accuracies.get(source, ACCU_INITIAL_ACCURACY)
            for source in claims.sources()
        }
        probabilities: dict[tuple[Item, str], float] = {}
        iterations = 0
        converged_at = None
        for iterations in range(1, self.max_iterations + 1):
            probabilities = self._estimate_probabilities(claims, accuracy)
            new_accuracy = self._estimate_accuracy(claims, probabilities)
            delta = max(
                abs(new_accuracy[source] - accuracy[source])
                for source in accuracy
            )
            accuracy = new_accuracy
            if delta < self.tolerance:
                converged_at = iterations
                break
        result = FusionResult(self.name)
        result.iterations = iterations
        result.converged_at = converged_at
        result.source_quality = accuracy
        result.belief = probabilities
        for item in claims.items():
            values = claims.values_of(item)
            winner = min(
                values,
                key=lambda value: (-probabilities[(item, value)], value),
            )
            result.truths[item] = {winner}
        return result

    # ------------------------------------------------------------------
    def _vote_counts(
        self, claims: ClaimSet, accuracy: dict[str, float], item: Item
    ) -> dict[str, float]:
        """Log-odds vote per value of one item."""
        votes: dict[str, float] = {}
        for value, value_claims in claims.values_of(item).items():
            vote = 0.0
            for claim in value_claims:
                source_accuracy = min(
                    max(accuracy[claim.source_id], ACCU_MIN_ACCURACY),
                    ACCU_MAX_ACCURACY,
                )
                vote += math.log(
                    ACCU_FALSE_VALUES
                    * source_accuracy
                    / (1.0 - source_accuracy)
                )
            votes[value] = vote
        return votes

    def _estimate_probabilities(
        self, claims: ClaimSet, accuracy: dict[str, float]
    ) -> dict[tuple[Item, str], float]:
        probabilities: dict[tuple[Item, str], float] = {}
        for item in claims.items():
            votes = self._vote_counts(claims, accuracy, item)
            top = max(votes.values())
            weights = {
                value: math.exp(vote - top) for value, vote in votes.items()
            }
            total = sum(weights.values())
            for value, weight in weights.items():
                probabilities[(item, value)] = weight / total
        return probabilities

    def _estimate_accuracy(
        self,
        claims: ClaimSet,
        probabilities: dict[tuple[Item, str], float],
    ) -> dict[str, float]:
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for claim in claims:
            sums[claim.source_id] = sums.get(claim.source_id, 0.0) + (
                probabilities[(claim.item, claim.value)]
            )
            counts[claim.source_id] = counts.get(claim.source_id, 0) + 1
        return {
            source: min(
                max(sums[source] / counts[source], ACCU_MIN_ACCURACY),
                ACCU_MAX_ACCURACY,
            )
            for source in sums
        }


class PopAccuLoops(AccuLoops):
    """POPACCU over the claim dicts."""

    name = "popaccu"

    def _vote_counts(
        self, claims: ClaimSet, accuracy: dict[str, float], item: Item
    ) -> dict[str, float]:
        values = claims.values_of(item)
        total_claims = sum(len(value_claims) for value_claims in values.values())
        if total_claims == 0:
            return {}
        shares = {
            value: len(value_claims) / total_claims
            for value, value_claims in values.items()
        }
        competing = sum(share * share for share in shares.values())
        effective_n = max(1.0, 1.0 / competing)
        votes: dict[str, float] = {}
        for value, value_claims in values.items():
            vote = 0.0
            for claim in value_claims:
                source_accuracy = min(
                    max(accuracy[claim.source_id], ACCU_MIN_ACCURACY),
                    ACCU_MAX_ACCURACY,
                )
                vote += math.log(
                    effective_n * source_accuracy / (1.0 - source_accuracy)
                )
            # Popular values earn proportionally less per-claim boost:
            # a claim of a common value is weaker evidence of truth.
            votes[value] = vote * (1.0 - 0.5 * shares[value])
        return votes


class MultiTruthLoops(MultiTruth):
    """Two-sided multi-truth fusion over the claim dicts."""

    def fuse(self, claims: ClaimSet) -> FusionResult:
        self._check_nonempty(claims)
        sensitivity = {
            source: MULTITRUTH_INITIAL_SENSITIVITY
            for source in claims.sources()
        }
        specificity = {
            source: MULTITRUTH_INITIAL_SPECIFICITY
            for source in claims.sources()
        }
        posterior: dict[tuple[Item, str], float] = {}
        iterations = 0
        converged_at = None
        for iterations in range(1, self.max_iterations + 1):
            posterior = self._posteriors(claims, sensitivity, specificity)
            new_sensitivity, new_specificity = self._estimate_quality(
                claims, posterior
            )
            delta = max(
                max(
                    abs(new_sensitivity[s] - sensitivity[s])
                    for s in sensitivity
                ),
                max(
                    abs(new_specificity[s] - specificity[s])
                    for s in specificity
                ),
            )
            sensitivity, specificity = new_sensitivity, new_specificity
            if delta < self.tolerance:
                converged_at = iterations
                break

        result = FusionResult(self.name)
        result.iterations = iterations
        result.converged_at = converged_at
        result.belief = posterior
        result.source_quality = {
            source: (sensitivity[source] + specificity[source]) / 2.0
            for source in sensitivity
        }
        for item in claims.items():
            values = claims.values_of(item)
            decided = {
                value
                for value in values
                if posterior[(item, value)] >= MULTITRUTH_THRESHOLD
            }
            if not decided:
                # Never return an empty answer: keep the best value.
                decided = {
                    min(
                        values,
                        key=lambda value: (-posterior[(item, value)], value),
                    )
                }
            result.truths[item] = decided
        return result

    # ------------------------------------------------------------------
    def _clamp(self, probability: float) -> float:
        return min(max(probability, MULTITRUTH_FLOOR), 1.0 - MULTITRUTH_FLOOR)

    def _posteriors(
        self,
        claims: ClaimSet,
        sensitivity: dict[str, float],
        specificity: dict[str, float],
    ) -> dict[tuple[Item, str], float]:
        prior_logodds = math.log(MULTITRUTH_PRIOR / (1.0 - MULTITRUTH_PRIOR))
        posterior: dict[tuple[Item, str], float] = {}
        for item in claims.items():
            values = claims.values_of(item)
            covering = claims.sources_claiming(item)
            for value, value_claims in values.items():
                claimers: dict[str, float] = {}
                for claim in value_claims:
                    confidence = (
                        claim.confidence if self.use_confidence else 1.0
                    )
                    claimers[claim.source_id] = max(
                        claimers.get(claim.source_id, 0.0), confidence
                    )
                logodds = prior_logodds
                for source in covering:
                    sens = self._clamp(sensitivity[source])
                    spec = self._clamp(specificity[source])
                    weight = self.source_weights.get(source, 1.0)
                    if source in claimers:
                        ratio = math.log(sens / (1.0 - spec))
                        # Temper by confidence: a low-confidence claim is
                        # weak evidence either way.
                        logodds += weight * claimers[source] * ratio
                    else:
                        logodds += weight * math.log((1.0 - sens) / spec)
                posterior[(item, value)] = 1.0 / (1.0 + math.exp(-logodds))
        return posterior

    def _estimate_quality(
        self,
        claims: ClaimSet,
        posterior: dict[tuple[Item, str], float],
    ) -> tuple[dict[str, float], dict[str, float]]:
        # Soft counts per source: claimed-true / all-true (sensitivity)
        # and silent-false / all-false (specificity), over covered items.
        # Specificity is only informed by *contested* items (at least
        # two distinct candidate values): on a single-candidate item a
        # claimant is never silent, so counting it would drive the
        # estimate to zero on sparse data.  Pseudo-counts anchored at
        # the initial values keep thin evidence from collapsing either
        # parameter.
        claimed_true: dict[str, float] = {}
        covered_true: dict[str, float] = {}
        silent_false: dict[str, float] = {}
        covered_false: dict[str, float] = {}
        for item in claims.items():
            values = claims.values_of(item)
            covering = claims.sources_claiming(item)
            contested = len(values) >= 2
            for value, value_claims in values.items():
                probability = posterior[(item, value)]
                claimers = {claim.source_id for claim in value_claims}
                for source in covering:
                    covered_true[source] = (
                        covered_true.get(source, 0.0) + probability
                    )
                    if contested:
                        covered_false[source] = (
                            covered_false.get(source, 0.0)
                            + (1.0 - probability)
                        )
                    if source in claimers:
                        claimed_true[source] = (
                            claimed_true.get(source, 0.0) + probability
                        )
                    elif contested:
                        silent_false[source] = (
                            silent_false.get(source, 0.0)
                            + (1.0 - probability)
                        )
        smoothing = 2.0
        sensitivity: dict[str, float] = {}
        specificity: dict[str, float] = {}
        for source in claims.sources():
            truths = covered_true.get(source, 0.0)
            falses = covered_false.get(source, 0.0)
            sensitivity[source] = self._clamp(
                (claimed_true.get(source, 0.0)
                 + smoothing * MULTITRUTH_INITIAL_SENSITIVITY)
                / (truths + smoothing)
            )
            specificity[source] = self._clamp(
                (silent_false.get(source, 0.0)
                 + smoothing * MULTITRUTH_INITIAL_SPECIFICITY)
                / (falses + smoothing)
            )
        return sensitivity, specificity


class GeneralizedSumsLoops(GeneralizedSums):
    """Confidence-weighted Sums over the claim dicts."""

    def fuse(self, claims: ClaimSet) -> FusionResult:
        self._check_nonempty(claims)
        trust = {source: 1.0 for source in claims.sources()}
        belief: dict[tuple[Item, str], float] = {}
        iterations = 0
        converged_at = None
        for iterations in range(1, self.max_iterations + 1):
            belief = {}
            for item in claims.items():
                scores: dict[str, float] = {}
                for value, value_claims in claims.values_of(item).items():
                    scores[value] = sum(
                        trust[claim.source_id]
                        * (claim.confidence if self.use_confidence else 1.0)
                        for claim in value_claims
                    )
                for value, score in normalize_beliefs(scores).items():
                    belief[(item, value)] = score
            new_trust: dict[str, float] = {}
            counts: dict[str, int] = {}
            for claim in claims:
                weight = claim.confidence if self.use_confidence else 1.0
                new_trust[claim.source_id] = new_trust.get(
                    claim.source_id, 0.0
                ) + weight * belief[(claim.item, claim.value)]
                counts[claim.source_id] = counts.get(claim.source_id, 0) + 1
            top = max(new_trust.values()) or 1.0
            new_trust = {
                source: value / top for source, value in new_trust.items()
            }
            delta = max(
                abs(new_trust[source] - trust[source]) for source in trust
            )
            trust = new_trust
            if delta < self.tolerance:
                converged_at = iterations
                break

        result = FusionResult(self.name)
        result.iterations = iterations
        result.converged_at = converged_at
        result.belief = belief
        result.source_quality = trust
        for item in claims.items():
            values = claims.values_of(item)
            winner = min(
                values, key=lambda value: (-belief[(item, value)], value)
            )
            result.truths[item] = {winner}
        return result


class InvestmentLoops(Investment):
    """Confidence-weighted Investment over the claim dicts."""

    def fuse(self, claims: ClaimSet) -> FusionResult:
        self._check_nonempty(claims)
        trust = {source: 1.0 for source in claims.sources()}
        # Per-source total claim weight (for proportional investment).
        totals: dict[str, float] = {}
        for claim in claims:
            weight = claim.confidence if self.use_confidence else 1.0
            totals[claim.source_id] = totals.get(claim.source_id, 0.0) + weight

        belief: dict[tuple[Item, str], float] = {}
        iterations = 0
        converged_at = None
        for iterations in range(1, self.max_iterations + 1):
            invested: dict[tuple[Item, str], float] = {}
            stake: dict[tuple[str, tuple[Item, str]], float] = {}
            for claim in claims:
                weight = claim.confidence if self.use_confidence else 1.0
                total = totals[claim.source_id]
                share = weight / total if total else 0.0
                credit = trust[claim.source_id] * share
                key = (claim.item, claim.value)
                invested[key] = invested.get(key, 0.0) + credit
                stake[(claim.source_id, key)] = (
                    stake.get((claim.source_id, key), 0.0) + credit
                )
            belief = {
                key: value**INVESTMENT_GROWTH
                for key, value in invested.items()
            }
            # Normalise beliefs within each item.
            per_item: dict[Item, dict[str, float]] = {}
            for (item, value), score in belief.items():
                per_item.setdefault(item, {})[value] = score
            belief = {}
            for item, scores in per_item.items():
                for value, score in normalize_beliefs(scores).items():
                    belief[(item, value)] = score
            new_trust: dict[str, float] = {source: 0.0 for source in trust}
            for (source, key), credit in stake.items():
                if invested[key] > 0:
                    new_trust[source] += belief[key] * credit / invested[key]
            top = max(new_trust.values()) or 1.0
            new_trust = {
                source: value / top for source, value in new_trust.items()
            }
            delta = max(
                abs(new_trust[source] - trust[source]) for source in trust
            )
            trust = new_trust
            if delta < self.tolerance:
                converged_at = iterations
                break

        result = FusionResult(self.name)
        result.iterations = iterations
        result.converged_at = converged_at
        result.belief = belief
        result.source_quality = trust
        for item in claims.items():
            values = claims.values_of(item)
            winner = min(
                values,
                key=lambda value: (-belief.get((item, value), 0.0), value),
            )
            result.truths[item] = {winner}
        return result


#: method name → (the method in ``src/``, its dict-loop oracle)
PAIRS = {
    "accu": (Accu, AccuLoops),
    "popaccu": (PopAccu, PopAccuLoops),
    "multitruth": (MultiTruth, MultiTruthLoops),
    "gensums": (GeneralizedSums, GeneralizedSumsLoops),
    "investment": (Investment, InvestmentLoops),
}
