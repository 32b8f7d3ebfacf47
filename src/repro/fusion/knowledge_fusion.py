"""The paper's combined knowledge-fusion method.

Section 3.2 commits to four improvements over plain data fusion, all of
which this class composes on top of the multi-truth Bayesian core:

1. functional *and* non-functional attributes — multi-truth decisions
   by default, with functional items constrained to a single truth
   (single chain, for hierarchical values);
2. hierarchical value spaces — the :class:`HierarchicalFusion` wrapper;
3. inter-source and inter-extractor correlations — copy-detection
   weights discount correlated claimants;
4. extraction confidence scores — claims act as soft evidence.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Callable

from repro.faults import FaultPlan, RetryPolicy
from repro.fusion.base import Claim, ClaimSet, FusionMethod, FusionResult
from repro.fusion.correlations import CorrelationEstimator
from repro.fusion.hierarchy import CasefoldHierarchy, HierarchicalFusion
from repro.fusion.multitruth import MultiTruth
from repro.fusion.sharding import fuse_sharded
from repro.rdf.hierarchy import ValueHierarchy

FunctionalOracle = Callable[[str], bool]


class KnowledgeFusion(FusionMethod):
    """Multi-truth fusion with hierarchy, correlations and confidence.

    Parameters
    ----------
    hierarchy:
        Optional value hierarchy for hierarchical attributes.
    functional_of:
        Optional oracle: predicate name → is the attribute functional?
        Functional items keep only their best truth (or best chain).
    use_source_correlations / use_extractor_correlations:
        Toggle the copy-detection discounts (ablation switches).
    use_confidence:
        Toggle soft-evidence claims (ablation switch).
    retry / fault_plan:
        Setting either runs the core fuse sharded over the connected
        components of the claim graph (:mod:`repro.fusion.sharding`),
        one reduce task of an in-process MapReduce job per chunk of
        components: ``retry`` (a :class:`repro.faults.RetryPolicy`)
        retries a failed task, ``fault_plan`` (a
        :class:`repro.faults.FaultPlan`) injects failures into them
        and into the incremental engine.  With neither, nothing can
        fail task by task and the fuse runs unsharded.
        Correlation estimation stays global (copy detection must see
        all claims); only the fixed-point fuse shards.  The last run's
        :class:`~repro.fusion.sharding.ShardStats` is kept in
        ``last_shard_stats`` (None on unsharded runs).
    tolerance:
        Optional convergence tolerance forwarded to the multi-truth
        core; ``None`` keeps the core's own default.  ``tolerance=0``
        pins the iteration count, which is the regime in which the
        incremental engine's byte-identity contract holds.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` handed down to the
        sharded fuse's MapReduce job (``mapreduce_*`` counters) and to
        the incremental engine (``incremental_*`` metrics); the
        pipeline passes its per-run registry here.

    Incremental updates
    -------------------
    ``begin_incremental(store)`` primes an
    :class:`~repro.incremental.engine.IncrementalFusion` over a triple
    store and returns it; subsequent ``apply_delta(delta)`` calls
    journal a :class:`~repro.incremental.delta.ClaimDelta` into the
    store and re-fuse only the dirty connected components, reusing
    cached verdicts everywhere else.
    """

    name = "knowledge-fusion"

    def __init__(
        self,
        *,
        hierarchy: ValueHierarchy | None = None,
        functional_of: FunctionalOracle | None = None,
        use_source_correlations: bool = True,
        use_extractor_correlations: bool = True,
        use_confidence: bool = True,
        prior: float = 0.3,
        threshold: float = 0.5,
        max_iterations: int = 20,
        tolerance: float | None = None,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        metrics=None,
    ) -> None:
        self.hierarchy = hierarchy
        self.functional_of = functional_of
        self.use_source_correlations = use_source_correlations
        self.use_extractor_correlations = use_extractor_correlations
        self.use_confidence = use_confidence
        self.prior = prior
        self.threshold = threshold
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.retry = retry
        self.fault_plan = fault_plan
        self.metrics = metrics
        self.last_shard_stats = None
        self.incremental = None
        self._casefold_hierarchy = (
            CasefoldHierarchy(hierarchy) if hierarchy is not None else None
        )

    # ------------------------------------------------------------------
    def fuse(self, claims: ClaimSet) -> FusionResult:
        self._check_nonempty(claims)
        working = claims
        if self.use_extractor_correlations:
            working = self._apply_extractor_weights(
                working, self._extractor_weights(working)
            )

        source_weights: dict[str, float] | None = None
        if self.use_source_correlations:
            source_weights = self._source_weights(working)

        base = self._base_method(source_weights)
        if self.retry is not None or self.fault_plan is not None:
            result, self.last_shard_stats = fuse_sharded(
                base,
                working,
                retry=self.retry,
                fault_plan=self.fault_plan,
                metrics=self.metrics,
            )
        else:
            self.last_shard_stats = None
            result = base.fuse(working)
        result.method = self.name
        if self.functional_of is not None:
            self._constrain_functional(result)
        return result

    # ------------------------------------------------------------------
    # Incremental updates.

    def begin_incremental(self, store, *, functional_refresh=None):
        """Prime an incremental engine over ``store`` and return it.

        ``store`` is a :class:`~repro.rdf.store.TripleStore` holding
        the current claim corpus; the engine takes ownership of it
        (deltas are journalled against internal copies and committed
        atomically).  ``functional_refresh``, when given, is a
        callable ``ClaimSet -> FunctionalOracle`` re-derived after
        every delta (the ``functionality_source="estimated"`` mode of
        the pipeline).  The engine is also kept on ``self.incremental``
        so :meth:`apply_delta` can be called on the fusion object
        directly.
        """
        from repro.incremental.engine import IncrementalFusion

        self.incremental = IncrementalFusion(
            self,
            store,
            functional_refresh=functional_refresh,
            metrics=self.metrics,
            fault_plan=self.fault_plan,
        )
        self.incremental.prime()
        return self.incremental

    def apply_delta(self, delta):
        """Apply a :class:`ClaimDelta` to the primed incremental state.

        Returns the engine's
        :class:`~repro.incremental.engine.DeltaOutcome`; raises
        :class:`~repro.errors.DeltaError` when no incremental engine
        was primed via :meth:`begin_incremental`.
        """
        if self.incremental is None:
            from repro.errors import DeltaError

            raise DeltaError(
                "apply_delta called before begin_incremental(store)"
            )
        return self.incremental.apply_delta(delta)

    # ------------------------------------------------------------------
    # Shared building blocks (also driven by the incremental engine,
    # which must replay exactly this preparation to keep its
    # byte-identity contract).

    def _extractor_weights(
        self, claims: Iterable[Claim]
    ) -> dict[str, float]:
        """Global extractor-correlation independence weights.

        Pass the claims in the order a full fuse would see them: the
        estimator's float sums follow it.
        """
        estimator = CorrelationEstimator(by="extractor")
        return estimator.estimate(claims).weights

    def _source_weights(self, claims: ClaimSet) -> dict[str, float]:
        """Source-correlation independence weights over ``claims``.

        Sources in different connected components of the claim graph
        share no items, so no dependence pair ever crosses a component
        boundary: estimating per component and merging yields exactly
        the global estimate (the incremental engine relies on this).
        """
        estimator = CorrelationEstimator(by="source")
        return estimator.estimate(claims).weights

    def _base_method(
        self, source_weights: dict[str, float] | None
    ) -> FusionMethod:
        """The multi-truth core (hierarchy-wrapped when configured)."""
        kwargs = {}
        if self.tolerance is not None:
            kwargs["tolerance"] = self.tolerance
        base: FusionMethod = MultiTruth(
            prior=self.prior,
            threshold=self.threshold,
            source_weights=source_weights,
            use_confidence=self.use_confidence
            or self.use_extractor_correlations,
            max_iterations=self.max_iterations,
            **kwargs,
        )
        if self.hierarchy is not None:
            base = HierarchicalFusion(base, self.hierarchy)
        return base

    def _apply_extractor_weights(
        self, claims: Iterable[Claim], weights: dict[str, float]
    ) -> ClaimSet:
        """Fold extractor-correlation discounts into claim confidences.

        ``claims`` are deduplicated (a claim set, or a list read from
        one); a discount moves neither a claim's key nor its place, so
        the result adopts the reweighted list.
        """
        reweighted: list[Claim] = []
        for claim in claims:
            weight = weights.get(claim.extractor_id, 1.0)
            confidence = claim.confidence if self.use_confidence else 1.0
            confidence = max(0.0, min(1.0, confidence * weight))
            # An undiscounted claim (claims are immutable) stands for
            # itself; a zero is rebuilt so its sign is the clamp's.
            if confidence != claim.confidence or confidence == 0.0:
                claim = Claim(
                    item=claim.item,
                    value=claim.value,
                    lexical=claim.lexical,
                    source_id=claim.source_id,
                    extractor_id=claim.extractor_id,
                    confidence=confidence,
                )
            reweighted.append(claim)
        return ClaimSet.adopt(reweighted)

    def _constrain_functional(self, result: FusionResult) -> None:
        """Keep a single truth (or chain) for functional attributes."""
        for item, truths in result.truths.items():
            if len(truths) <= 1:
                continue
            predicate = item[1]
            if not self.functional_of(predicate):
                continue
            best = min(
                truths,
                key=lambda value: (-result.belief_of(item, value), value),
            )
            if self._casefold_hierarchy is not None:
                chain = set(self._casefold_hierarchy.chain(best))
                kept = {value for value in truths if value in chain}
                # Prefer the deepest decided value's chain.
                deepest = max(
                    kept or {best},
                    key=lambda value: self._casefold_hierarchy.depth(value),
                )
                result.truths[item] = frozenset(
                    self._casefold_hierarchy.chain(deepest)
                ) & (truths | {deepest})
            else:
                result.decide(item, [best])
