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

Fusing a claim graph is defined once, here: (1) reweight the claims by
the global extractor weights, (2) split them into connected components
(:func:`~repro.fusion.sharding.shard_claims`), (3) fuse each component
with its own source-correlation weights and the hierarchy-wrapped
multi-truth core, (4) merge the results and (5) apply the functional
constraint.  Step 3 is one :func:`~repro.fusion.sharding.fuse_sharded`
MapReduce job and steps 4–5 are one
:func:`~repro.fusion.sharding.patch_results`, in
:meth:`KnowledgeFusion.fuse` and in the incremental engine alike: the
engine is this fuse plus a component cache, so it dispatches only the
components its cache misses and constrains only their items.  A
component exits on its own convergence in both.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import partial
from typing import Callable

from repro.errors import FusionError
from repro.faults import FaultPlan, RetryPolicy
from repro.fusion.base import (
    Claim,
    ClaimSet,
    FusionMethod,
    FusionResult,
    Item,
    check_iterations,
)
from repro.fusion.correlations import CorrelationEstimator
from repro.fusion.hierarchy import CasefoldHierarchy, HierarchicalFusion
from repro.fusion.multitruth import MultiTruth
from repro.fusion.sharding import fuse_sharded, patch_results, shard_claims
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
        A :class:`repro.faults.RetryPolicy` for the component tasks of
        every MapReduce job a fuse, a prime or a delta runs (None: one
        attempt) and a :class:`repro.faults.FaultPlan` injected into
        them and into the incremental engine's stages; neither changes
        the beliefs.  The last fuse's
        :class:`~repro.fusion.sharding.ShardStats` is
        ``last_shard_stats``.
    tolerance:
        Optional convergence tolerance forwarded to the multi-truth
        core; ``None`` keeps the core's own default.  ``tolerance=0``
        pins the iteration count.  Each component exits on its own
        convergence, in a fuse and in the incremental engine alike.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` handed down to
        those MapReduce jobs (``mapreduce_*`` counters) and to the
        incremental engine (``incremental_*`` metrics); the pipeline
        passes its per-run registry here.

    Incremental updates
    -------------------
    ``begin_incremental(store)`` primes an
    :class:`~repro.incremental.engine.IncrementalFusion` over a triple
    store and returns it.  Its ``apply_delta(delta)`` journals a
    :class:`~repro.incremental.delta.ClaimDelta` into the store and
    re-fuses only the dirty connected components, reusing cached
    verdicts everywhere else.  Within the library its one caller is
    :class:`~repro.serving.server.KBServer`.
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
        self.max_iterations = check_iterations(max_iterations)
        self.tolerance = tolerance
        self.retry = retry
        self.fault_plan = fault_plan
        self.metrics = metrics
        self._casefold_hierarchy = (
            CasefoldHierarchy(hierarchy) if hierarchy is not None else None
        )

    # ------------------------------------------------------------------
    def fuse(self, claims: ClaimSet) -> FusionResult:
        """The five steps of the module docstring."""
        if len(claims) == 0:
            raise FusionError(f"{self.name}: empty claim set")
        working = self.reweighted(claims, self.extractor_weights(claims))
        results, self.last_shard_stats = fuse_sharded(
            self.fuse_component,
            shard_claims(working),
            retry=self.retry,
            fault_plan=self.fault_plan,
            metrics=self.metrics,
        )
        result, _maps = patch_results(
            self.name,
            results,
            constrain=partial(
                self.functional_rebinds, functional_of=self.functional_of
            ),
        )
        return result

    # ------------------------------------------------------------------
    # Incremental updates.

    def begin_incremental(self, store):
        """Prime an incremental engine over ``store`` and return it.

        ``store`` is a :class:`~repro.rdf.store.TripleStore` holding
        the current claim corpus; the engine takes ownership of it
        (deltas are journalled against internal copies and committed
        atomically).
        """
        from repro.incremental.engine import IncrementalFusion

        engine = IncrementalFusion(self, store)
        engine.prime()
        return engine

    # ------------------------------------------------------------------
    # The steps, shared with the incremental engine.

    def extractor_weights(self, claims: Iterable[Claim]) -> dict[str, float]:
        """Step 1a: global extractor-correlation independence weights
        (none when that correlation is switched off).  They depend on
        the claims alone, not on the order they are passed in.
        """
        if not self.use_extractor_correlations:
            return {}
        return CorrelationEstimator(by="extractor").estimate(claims).weights

    def reweighted(
        self, claims: Iterable[Claim], weights: dict[str, float]
    ) -> ClaimSet:
        """Step 1b: fold extractor-correlation discounts into claim
        confidences (claims stand as they are when that correlation is
        switched off).

        ``claims`` are deduplicated (a claim set, or a list read from
        one); a discount moves neither a claim's key nor its place, so
        the result adopts the reweighted list.
        """
        if not self.use_extractor_correlations:
            return ClaimSet.adopt(list(claims))
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

    def fuse_component(self, shard: ClaimSet) -> FusionResult:
        """Step 3: fuse one connected component of reweighted claims.

        Its source-correlation weights are estimated on the component
        alone (sources in different components share no items, so no
        dependence pair crosses a component boundary); the core is the
        multi-truth model, hierarchy-wrapped when configured.
        """
        source_weights = (
            CorrelationEstimator(by="source").estimate(shard).weights
            if self.use_source_correlations
            else None
        )
        kwargs = {}
        if self.tolerance is not None:
            kwargs["tolerance"] = self.tolerance
        base: FusionMethod = MultiTruth(
            source_weights=source_weights,
            use_confidence=self.use_confidence
            or self.use_extractor_correlations,
            max_iterations=self.max_iterations,
            **kwargs,
        )
        if self.hierarchy is not None:
            base = HierarchicalFusion(base, self.hierarchy)
        return base.fuse(shard)

    def functional_rebinds(
        self, result: FusionResult, functional_of: FunctionalOracle | None
    ) -> dict[Item, frozenset[str]]:
        """Step 5: the truth set each item of ``result`` that the
        constraint rebinds to a single truth (or chain) — the items of
        attributes ``functional_of`` calls functional (None: no
        attribute is)."""
        # Decided into a result of its own, so a single truth is the
        # set ``decide`` shares.
        rebound = FusionResult(result.method)
        if functional_of is None:
            return rebound.truths
        for item, truths in result.truths.items():
            if len(truths) <= 1:
                continue
            predicate = item[1]
            if not functional_of(predicate):
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
                rebound.truths[item] = frozenset(
                    self._casefold_hierarchy.chain(deepest)
                ) & (truths | {deepest})
            else:
                rebound.decide(item, [best])
        return rebound.truths
