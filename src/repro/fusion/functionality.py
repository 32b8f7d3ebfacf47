"""Functionality-degree estimation for attributes.

The paper singles this out as an open problem: "very few works have
considered the functionality degree of attributes" (Sec. 1).  The
functionality degree of an attribute is (informally) the inverse of how
many true values an entity typically has for it — 1.0 for a strictly
functional attribute (birth date), lower for multi-valued ones
(children, cast).

The estimator recovers the degree *from the claims themselves*, without
schema knowledge: for each predicate it measures how many distinct
values a single source asserts per subject (a source asserting several
values for the same subject believes the attribute is multi-valued; a
conflict *between* sources does not).  The degree feeds fusion as a
per-predicate decision policy: high-degree predicates keep a single
truth, low-degree ones may keep several.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median

from repro.errors import FusionError
from repro.fusion.base import ClaimSet

#: The degree from which a predicate counts as (practically) functional:
#: a typical source asserting one value per subject reads 1.0, two
#: values 0.5.
FUNCTIONAL_THRESHOLD = 0.75


@dataclass(slots=True)
class FunctionalityEstimate:
    """Per-predicate functionality degrees in ``(0, 1]``."""

    degree: dict[str, float] = field(default_factory=dict)
    default: float = 1.0

    def of(self, predicate: str) -> float:
        return self.degree.get(predicate, self.default)

    def is_functional(self, predicate: str) -> bool:
        """Classify a predicate as (practically) functional."""
        return self.of(predicate) >= FUNCTIONAL_THRESHOLD


class FunctionalityEstimator:
    """Estimate functionality degrees from a claim set.

    Parameters
    ----------
    min_observations:
        Predicates observed on fewer (source, subject) pairs keep the
        default degree of 1.0 (assume functional when unsure — the
        conservative choice, matching how existing KBs treat unknown
        properties).
    """

    def __init__(self, *, min_observations: int = 5) -> None:
        if min_observations < 1:
            raise FusionError("min_observations must be >= 1")
        self.min_observations = min_observations

    def estimate(self, claims: ClaimSet) -> FunctionalityEstimate:
        # (predicate, subject, source) -> distinct value count.
        counts: dict[tuple[str, str, str], set[str]] = {}
        for claim in claims:
            subject, predicate = claim.item
            counts.setdefault(
                (predicate, subject, claim.source_id), set()
            ).add(claim.value)
        per_predicate: dict[str, list[int]] = {}
        for (predicate, _subject, _source), values in counts.items():
            per_predicate.setdefault(predicate, []).append(len(values))
        estimate = FunctionalityEstimate()
        for predicate, observations in per_predicate.items():
            if len(observations) < self.min_observations:
                continue
            typical = median(observations)
            estimate.degree[predicate] = 1.0 / max(1.0, typical)
        return estimate


def functional_oracle_from_claims(claims: ClaimSet):
    """Build a ``predicate -> bool`` oracle for
    :class:`repro.fusion.knowledge_fusion.KnowledgeFusion` straight from
    the claims (unsupervised replacement for a schema oracle)."""
    return FunctionalityEstimator().estimate(claims).is_functional
