"""VOTE: the majority-voting baseline (Dong et al. [13]).

Each item's truth is the value asserted by the most distinct sources;
ties break deterministically on the value key.  VOTE assumes a single
truth per item and knows nothing about source quality — it is the
baseline every smarter method must beat.
"""

from __future__ import annotations

from repro.fusion.base import ClaimSet, FusionMethod, FusionResult


class Vote(FusionMethod):
    """Single-truth majority voting.

    Parameters
    ----------
    weighted:
        When ``True``, votes are weighted by claim confidence instead
        of counting each source once.
    """

    name = "vote"

    def __init__(self, *, weighted: bool = False) -> None:
        self.weighted = weighted

    def fuse(self, claims: ClaimSet) -> FusionResult:
        self._check_nonempty(claims)
        result = FusionResult(self.name)
        for item in claims.items():
            scores: dict[str, float] = {}
            for value, value_claims in claims.values_of(item).items():
                if self.weighted:
                    scores[value] = sum(
                        claim.confidence for claim in value_claims
                    )
                else:
                    scores[value] = float(
                        len({claim.source_id for claim in value_claims})
                    )
            winner = min(
                scores, key=lambda value: (-scores[value], value)
            )
            result.decide(item, [winner])
            total = sum(scores.values())
            for value, score in scores.items():
                result.belief[(item, value)] = (
                    score / total if total else 0.0
                )
        result.iterations = 1
        return result
