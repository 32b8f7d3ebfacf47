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
sampling).  The prior, the threshold, the starting quality and its
clamp are the ``MULTITRUTH_*`` constants of
:mod:`repro.fusion.compiled`.

Optional hooks used by the paper's combined method:

* ``source_weights`` — exponents damping the likelihood ratios of
  correlated sources (a clique of copiers counts roughly once);
* ``use_confidence`` — claims enter as soft evidence: the likelihood
  ratio is tempered by the claim's extraction confidence.
"""

from __future__ import annotations

from repro.fusion.base import ClaimSet, FusionMethod, FusionResult, check_iterations
from repro.fusion.compiled import compile_evidence, multitruth_fuse


class MultiTruth(FusionMethod):
    """Two-sided (sensitivity/specificity) multi-truth fusion."""

    name = "multitruth"

    def __init__(
        self,
        *,
        source_weights: dict[str, float] | None = None,
        use_confidence: bool = False,
        max_iterations: int = 20,
        tolerance: float = 1e-4,
    ) -> None:
        self.source_weights = dict(source_weights or {})
        self.use_confidence = use_confidence
        self.max_iterations = check_iterations(max_iterations)
        self.tolerance = tolerance

    def fuse(self, claims: ClaimSet) -> FusionResult:
        self._check_nonempty(claims)
        return multitruth_fuse(
            compile_evidence(claims),
            source_weights=self.source_weights,
            use_confidence=self.use_confidence,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
            name=self.name,
        )
