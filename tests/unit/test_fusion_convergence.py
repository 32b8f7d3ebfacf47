"""Convergence early-exit tests for the fixed-point fusion methods.

On an easy instance (accurate sources, clean separation) every
iterative method should reach its fixed point well before the
iteration cap, report the round in ``converged_at``, and decide the
same truths whether the early exit is enabled (default tolerance) or
disabled (``tolerance=0`` runs all rounds).
"""

import pytest

from repro.errors import FusionError
from repro.fusion.accu import Accu, PopAccu
from repro.fusion.confidence_weighted import GeneralizedSums, Investment
from repro.fusion.multitruth import MultiTruth
from repro.fusion.vote import Vote
from repro.synth.claims import ClaimWorldConfig, generate_claim_world
from tests.oracles.fusion_loops import AccuLoops, assert_same_result


@pytest.fixture(scope="module")
def easy_claims():
    config = ClaimWorldConfig(
        seed=17, n_items=50, n_sources=6,
        source_accuracies=[0.95, 0.92, 0.9, 0.88, 0.85, 0.82],
    )
    return generate_claim_world(config).claims


# Method class + the convergence tolerance used on the easy instance.
# Investment's trust vector contracts by only a few percent per round
# (the convex growth keeps reallocating credit), so it gets a looser
# tolerance; the others settle quickly at their defaults.
FIXED_POINT_METHODS = {
    "accu": (Accu, 1e-4),
    "popaccu": (PopAccu, 1e-4),
    "multitruth": (MultiTruth, 1e-4),
    "gensums": (GeneralizedSums, 1e-6),
    "investment": (Investment, 1e-2),
}


class TestEarlyExit:
    @pytest.mark.parametrize("name", sorted(FIXED_POINT_METHODS))
    def test_converges_before_cap(self, easy_claims, name):
        method_cls, tolerance = FIXED_POINT_METHODS[name]
        method = method_cls(max_iterations=50, tolerance=tolerance)
        result = method.fuse(easy_claims)
        assert result.converged_at is not None
        assert result.converged_at == result.iterations
        assert result.iterations < 50

    @pytest.mark.parametrize("name", sorted(FIXED_POINT_METHODS))
    def test_same_truths_with_and_without_early_exit(
        self, easy_claims, name
    ):
        method_cls, tolerance = FIXED_POINT_METHODS[name]
        early = method_cls(tolerance=tolerance).fuse(easy_claims)
        full = method_cls(tolerance=0.0).fuse(easy_claims)
        assert early.truths == full.truths
        assert early.iterations < full.iterations

    @pytest.mark.parametrize("name", sorted(FIXED_POINT_METHODS))
    def test_tolerance_zero_runs_all_rounds(self, easy_claims, name):
        method_cls, _tolerance = FIXED_POINT_METHODS[name]
        method = method_cls(tolerance=0.0, max_iterations=7)
        result = method.fuse(easy_claims)
        assert result.iterations == 7
        assert result.converged_at is None

    @pytest.mark.parametrize("name", sorted(FIXED_POINT_METHODS))
    @pytest.mark.parametrize("max_iterations", [0, -1])
    def test_no_round_is_refused_at_construction(self, name, max_iterations):
        """Without a round every belief stays 0.0 and truths would be
        decided by value key: each iterative method refuses it."""
        method_cls, _tolerance = FIXED_POINT_METHODS[name]
        with pytest.raises(FusionError, match="at least 1"):
            method_cls(max_iterations=max_iterations)

    def test_vote_does_not_iterate(self, easy_claims):
        result = Vote().fuse(easy_claims)
        assert result.converged_at is None

    @pytest.mark.parametrize("early_exit", [True, False])
    def test_compiled_and_legacy_agree_on_round(
        self, easy_claims, early_exit
    ):
        kwargs = {} if early_exit else {"tolerance": 0.0}
        result = Accu(**kwargs).fuse(easy_claims)
        assert_same_result(result, AccuLoops(**kwargs).fuse(easy_claims))
        assert (result.converged_at is not None) == early_exit
