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
suggests).  ``n``, the starting accuracy and the accuracy clamp are
the ``ACCU_*`` constants of :mod:`repro.fusion.compiled`.
"""

from __future__ import annotations

from repro.fusion.base import ClaimSet, FusionMethod, FusionResult, check_iterations
from repro.fusion.compiled import accu_fuse, compile_votes


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
        initial_accuracies: dict[str, float] | None = None,
        max_iterations: int = 20,
        tolerance: float = 1e-4,
    ) -> None:
        self.initial_accuracies = dict(initial_accuracies or {})
        self.max_iterations = check_iterations(max_iterations)
        self.tolerance = tolerance

    def fuse(self, claims: ClaimSet) -> FusionResult:
        self._check_nonempty(claims)
        return accu_fuse(
            compile_votes(claims),
            initial_accuracies=self.initial_accuracies,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
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
