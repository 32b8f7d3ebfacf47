"""Confidence-weighted fact-finding (Pasternack & Roth, IJCAI'11).

The paper plans to "leverage the confidence scores calculated from the
first phase" the way generalized fact-finding leverages source-supplied
confidence (Sec. 3.2, bullet 4).  Two generalized fact-finders are
implemented; both iterate source trust against claim belief, with every
claim weighted by its extraction confidence:

* **GeneralizedSums** (generalized Hubs & Authorities): belief of a
  value is the confidence-weighted sum of the trust of its claimants;
  trust of a source is the average belief of its claims.
* **Investment**: sources "invest" their trust across their claims
  proportionally to claim confidence; beliefs grow by a convex function
  of invested credit (the power
  :data:`~repro.fusion.compiled.INVESTMENT_GROWTH`), and sources earn
  back trust proportionally to their share of each claim's belief —
  rewarding sources that back well-corroborated values early.
"""

from __future__ import annotations

from repro.fusion.base import ClaimSet, FusionMethod, FusionResult, check_iterations
from repro.fusion.compiled import compile_votes, gensums_fuse, investment_fuse


class GeneralizedSums(FusionMethod):
    """Confidence-weighted Sums (Hubs & Authorities) fact-finder."""

    name = "gensums"

    def __init__(
        self,
        *,
        max_iterations: int = 20,
        tolerance: float = 1e-6,
        use_confidence: bool = True,
    ) -> None:
        self.max_iterations = check_iterations(max_iterations)
        self.tolerance = tolerance
        self.use_confidence = use_confidence

    def fuse(self, claims: ClaimSet) -> FusionResult:
        self._check_nonempty(claims)
        return gensums_fuse(
            compile_votes(claims),
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
            use_confidence=self.use_confidence,
            name=self.name,
        )


class Investment(FusionMethod):
    """Confidence-weighted Investment fact-finder."""

    name = "investment"

    def __init__(
        self,
        *,
        max_iterations: int = 20,
        tolerance: float = 1e-6,
        use_confidence: bool = True,
    ) -> None:
        self.max_iterations = check_iterations(max_iterations)
        self.tolerance = tolerance
        self.use_confidence = use_confidence

    def fuse(self, claims: ClaimSet) -> FusionResult:
        self._check_nonempty(claims)
        return investment_fuse(
            compile_votes(claims),
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
            use_confidence=self.use_confidence,
            name=self.name,
        )
