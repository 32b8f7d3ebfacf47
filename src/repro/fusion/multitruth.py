"""Multi-truth Bayesian fusion (two-sided source quality).

Following Zhao et al.'s insight (PVLDB'12) that the paper adopts for
non-functional attributes: when an item can have *several* true values,
a single per-source accuracy is the wrong model — a source can be
precise yet incomplete.  Each source therefore carries

* **sensitivity** (recall): the chance it asserts a value that is true,
* **specificity**: the chance it stays silent on a value that is false,

and each candidate value is judged independently by posterior odds:

``odds(v) = prior_odds · Π_s  L_s(v)``

where, over sources that cover the item, a source claiming ``v``
contributes ``sens_s / (1 - spec_s)`` and a covering source silent on
``v`` contributes ``(1 - sens_s) / spec_s``.  Values with posterior
probability above a threshold are truths — one, several, or none per
item.  Quality parameters are re-estimated from the decisions until
convergence (a scalable hard-EM in place of the paper's Gibbs
sampling).

Optional hooks used by the paper's combined method:

* ``source_weights`` — exponents damping the likelihood ratios of
  correlated sources (a clique of copiers counts roughly once);
* ``use_confidence`` — claims enter as soft evidence: the likelihood
  ratio is tempered by the claim's extraction confidence.
"""

from __future__ import annotations

from repro.errors import FusionError
from repro.fusion.base import ClaimSet, FusionMethod, FusionResult
from repro.fusion.compiled import compile_claims, multitruth_fuse


class MultiTruth(FusionMethod):
    """Two-sided (sensitivity/specificity) multi-truth fusion."""

    name = "multitruth"

    def __init__(
        self,
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
    ) -> None:
        if not 0 < prior < 1:
            raise FusionError("prior must lie in (0, 1)")
        if not 0 < threshold < 1:
            raise FusionError("threshold must lie in (0, 1)")
        self.prior = prior
        self.threshold = threshold
        self.initial_sensitivity = initial_sensitivity
        self.initial_specificity = initial_specificity
        self.source_weights = dict(source_weights or {})
        self.use_confidence = use_confidence
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.floor = floor

    def fuse(self, claims: ClaimSet) -> FusionResult:
        self._check_nonempty(claims)
        return multitruth_fuse(
            compile_claims(claims),
            prior=self.prior,
            threshold=self.threshold,
            initial_sensitivity=self.initial_sensitivity,
            initial_specificity=self.initial_specificity,
            source_weights=self.source_weights,
            use_confidence=self.use_confidence,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
            floor=self.floor,
            name=self.name,
        )
