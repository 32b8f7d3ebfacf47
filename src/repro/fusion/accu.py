"""ACCU and POPACCU: accuracy-based Bayesian truth discovery.

Adaptations of the data-fusion methods Dong et al. scaled up for
knowledge fusion [13]:

* **ACCU** (Dong et al., PVLDB'09, independence case) — iterate between
  (a) scoring each value by the log-odds votes of the sources claiming
  it, where a source of accuracy ``A`` casts ``ln(n·A / (1-A))``, and
  (b) re-estimating each source's accuracy as the average probability
  of the values it claims.  ``n`` is the assumed number of uniformly
  likely false values per item.
* **POPACCU** (Dong et al., VLDB'14) — drops the uniform-false-value
  assumption: the penalty for a wrong value follows the *observed
  popularity* of the competing values, making the method robust when
  false values are heavily skewed (e.g. a meme value copied
  everywhere).

Both assume a single truth per item; both support per-source initial
accuracies (e.g. from a gold standard, as the paper's improvement
suggests) and optional per-source weights (used by the
correlation-aware wrapper).
"""

from __future__ import annotations

from repro.errors import FusionError
from repro.fusion.base import ClaimSet, FusionMethod, FusionResult
from repro.fusion.compiled import accu_fuse, compile_claims


class Accu(FusionMethod):
    """ACCU: Bayesian single-truth discovery with source accuracies.

    The fixed-point rounds run over :mod:`repro.fusion.compiled` flat
    arrays; the dict-loop reference they are pinned against lives in
    ``tests/oracles/fusion_loops.py``.  ``tolerance=0`` disables the
    convergence early-exit.
    """

    name = "accu"
    _popularity = False  # POPACCU flips this for the compiled kernel.

    def __init__(
        self,
        *,
        n_false_values: int = 10,
        initial_accuracy: float = 0.8,
        initial_accuracies: dict[str, float] | None = None,
        source_weights: dict[str, float] | None = None,
        max_iterations: int = 20,
        tolerance: float = 1e-4,
        min_accuracy: float = 0.05,
        max_accuracy: float = 0.99,
    ) -> None:
        if n_false_values < 1:
            raise FusionError("n_false_values must be >= 1")
        if not 0 < initial_accuracy < 1:
            raise FusionError("initial_accuracy must lie in (0, 1)")
        self.n_false_values = n_false_values
        self.initial_accuracy = initial_accuracy
        self.initial_accuracies = dict(initial_accuracies or {})
        self.source_weights = dict(source_weights or {})
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.min_accuracy = min_accuracy
        self.max_accuracy = max_accuracy

    def fuse(self, claims: ClaimSet) -> FusionResult:
        self._check_nonempty(claims)
        return accu_fuse(
            compile_claims(claims),
            n_false_values=self.n_false_values,
            initial_accuracy=self.initial_accuracy,
            initial_accuracies=self.initial_accuracies,
            source_weights=self.source_weights,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
            min_accuracy=self.min_accuracy,
            max_accuracy=self.max_accuracy,
            popularity=self._popularity,
            name=self.name,
        )


class PopAccu(Accu):
    """POPACCU: popularity-aware variant of ACCU.

    The false-value count ``n`` is replaced, per item, by an effective
    count derived from the empirical value distribution: with ``k``
    observed competing values of popularity share ``p_i``, the penalty
    uses the inverse participation ratio ``1 / Σ p_i²`` (uniform
    distributions recover plain ACCU; skewed ones lower the effective
    count, weakening the boost a popular false value gets).
    """

    name = "popaccu"
    _popularity = True
