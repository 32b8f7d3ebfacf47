"""Connected-component sharding of the claim bipartite graph.

Fusion couples an item to its sources and a source to its items —
nothing else.  Two claims therefore interact only when their items and
sources are linked in the bipartite item↔source graph, so each
connected *component* of that graph is an independent fusion problem:
fusing components separately and merging the results is exactly
equivalent to one global run (per-source and per-item statistics never
cross a component boundary, and the float operation order inside one
component is unchanged, so the merged output is byte-identical).
:func:`shard_claims` finds the components by joining the sources of
each item's run and deals the claims out in their order: a shard is a
sub-list of a deduplicated list, adopted by its :class:`ClaimSet`
without hashing a claim, and a set that is one component is its own
shard.

:func:`fuse_sharded` runs the shards as the records of one
:mod:`repro.mapreduce` job, a reduce group per component — every
``KnowledgeFusion.fuse`` is one — for its per-task retries and its
determinism contract (reduce groups processed in sorted key order,
results merged deterministically).  The fusion method is bound into
the reducer with ``functools.partial``, which keeps the job picklable.
A component task that fails every allowed attempt fails the fuse: the
merged result always covers every component.

:func:`patch_results` is the same merge for a caller that keeps
component results across fuses (the incremental engine): it patches
the previous merge's beliefs and source qualities by the components
that changed, and constrains only their items.

Caveat: a component that satisfies its convergence tolerance early
exits on its *own* delta, while one run of a method over the whole set
exits on the maximum delta across all components — identical truths in
practice, but extra rounds elsewhere can move beliefs by up to the
tolerance.  At ``tolerance=0`` (fixed iterations) the two are
bit-identical; the equivalence tests pin both regimes.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from operator import attrgetter

from repro.errors import FusionError
from repro.faults import FaultPlan, RetryPolicy
from repro.fusion.base import (
    Claim,
    ClaimSet,
    FusionMethod,
    FusionResult,
    Item,
)

__all__ = [
    "MergedMaps",
    "ShardStats",
    "shard_claims",
    "merge_results",
    "patch_results",
    "fuse_sharded",
]


@dataclass(slots=True)
class ShardStats:
    """Per-component accounting of one sharded fusion run."""

    components: int = 0
    component_claims: list[int] = field(default_factory=list)
    # Fault-tolerance accounting, copied from the underlying job's
    # JobStats.
    attempts: int = 0
    retries: int = 0
    timed_out_tasks: int = 0

    @property
    def largest_claims(self) -> int:
        return max(self.component_claims, default=0)


def _component_map(claims: ClaimSet) -> dict[str, int]:
    """Source id → component id via union-find over the claim graph.

    An item joins the sources of its run, so the sources alone are the
    nodes.  Component ids are densely numbered in order of first
    appearance in the claim set's iteration order, so the sharding is
    deterministic.
    """
    parent: dict[str, str] = {}

    def find(node):
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:  # path compression
            parent[node], node = root, parent[node]
        return root

    for _item, run in claims.runs():
        first = run[0].source_id
        if first not in parent:
            parent[first] = first
        if len(run) > 1:
            root = find(first)
            for source in {claim.source_id for claim in run}:
                if source not in parent:
                    parent[source] = root
                else:
                    parent[find(source)] = root

    component_of_root: dict[str, int] = {}
    return {
        source: component_of_root.setdefault(
            find(source), len(component_of_root)
        )
        for source in dict.fromkeys(claim.source_id for claim in claims)
    }


def shard_claims(claims: ClaimSet) -> list[ClaimSet]:
    """Split a claim set into its connected components.

    Claims keep their relative order inside each shard, so fusing a
    shard replays the exact float operation order of the global run
    restricted to that component.  A set that is one component is its
    own shard; a shard of several is a filtered list of a deduplicated
    one, so no claim is hashed again.
    """
    mapping = _component_map(claims)
    components = len(set(mapping.values()))
    if components == 1:
        return [claims]
    shards: list[list[Claim]] = [[] for _ in range(components)]
    for claim in claims:
        shards[mapping[claim.source_id]].append(claim)
    return [ClaimSet.adopt(shard) for shard in shards]


def merge_results(
    name: str, results: Iterable[FusionResult]
) -> FusionResult:
    """The disjoint union of per-component results, as one result.

    Truth sets are shared, not copied: the merged result is handed to
    callers (and rebound, item by item, by the functional constraint)
    while a component result may stay cached, and a ``frozenset``
    cannot be changed through either.  ``iterations`` and
    ``converged_at`` report the slowest component (``converged_at`` is
    None if any component hit its iteration cap).
    """
    results = list(results)
    merged = _merged_truths(name, results)
    for result in results:
        merged.belief.update(result.belief)
        merged.source_quality.update(result.source_quality)
    return merged


_iterations_of = attrgetter("iterations")
_converged_of = attrgetter("converged_at")


def _merged_truths(name: str, results: list[FusionResult]) -> FusionResult:
    """A result holding the union of ``results``' truths, in their
    order, and their slowest round counts; no beliefs yet."""
    truths: dict[Item, frozenset[str]] = {}
    for result in results:
        truths.update(result.truths)
    merged = FusionResult(
        name, truths, iterations=max(map(_iterations_of, results), default=0)
    )
    converged = list(map(_converged_of, results))
    if converged and None not in converged:
        merged.converged_at = max(converged)
    return merged


@dataclass(slots=True)
class MergedMaps:
    """What :func:`patch_results` patches the next merge from: the
    merge's beliefs and source qualities, and the truth sets its
    functional constraint rebound.  Its owner hands none of them out —
    the merged result carries copies — so no holder of a result can
    change the next one."""

    belief: dict[tuple[Item, str], float]
    source_quality: dict[str, float]
    rebound: dict[Item, frozenset[str]]


def patch_results(
    name: str,
    results: list[FusionResult],
    *,
    constrain: Callable[[FusionResult], dict[Item, frozenset[str]]]
    | None = None,
    prior: MergedMaps | None = None,
    dropped: Iterable[FusionResult] = (),
    fresh: Iterable[FusionResult] = (),
) -> tuple[FusionResult, MergedMaps]:
    """:func:`merge_results` of ``results`` (every component, in
    order) with the functional constraint applied, plus the maps the
    next call patches it from.  ``constrain`` is the constraint: given
    a result, the truth set each item it changes is rebound to.

    Without a ``prior`` the maps are merged from ``results`` and every
    item is constrained.  With one, ``dropped`` are the results
    ``prior`` covers that are gone and ``fresh`` the new ones: the
    maps are ``prior``'s copies less ``dropped``'s keys plus
    ``fresh``'s, and only ``fresh``'s items are constrained — every
    other item keeps the rebinding ``prior`` recorded.  Components own
    disjoint items and sources, so the result is the same either way;
    a patch reads the maps of no result outside ``dropped`` and
    ``fresh``.  ``truths`` is rebuilt whole, one ``dict.update`` per
    result, so it iterates in ``results`` order; a rebinding keeps an
    item's place.
    """
    if prior is None:
        merged = region = merge_results(name, results)
        belief = merged.belief.copy()
        quality = merged.source_quality.copy()
        rebound: dict[Item, frozenset[str]] = {}
    else:
        merged = _merged_truths(name, results)
        belief = prior.belief.copy()
        quality = prior.source_quality.copy()
        rebound = prior.rebound.copy()
        for result in dropped:
            for key in result.belief:
                del belief[key]
            for source in result.source_quality:
                del quality[source]
            for item in result.truths:
                rebound.pop(item, None)
        region = FusionResult(name, belief=belief)
        for result in fresh:
            belief.update(result.belief)
            quality.update(result.source_quality)
            region.truths.update(result.truths)
        merged.belief = belief.copy()
        merged.source_quality = quality.copy()
    if constrain is not None:
        rebound.update(constrain(region))
    merged.truths.update(rebound)
    return merged, MergedMaps(belief, quality, rebound)


def _component_mapper(record: tuple[int, ClaimSet]):
    yield record


def _component_reducer(method: FusionMethod, component: int, shards: list):
    (shard,) = shards
    yield component, len(shard), method.fuse(shard)


def fuse_sharded(
    method: FusionMethod,
    claims: ClaimSet,
    *,
    retry: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    metrics=None,
) -> tuple[FusionResult, ShardStats]:
    """Fuse each connected component independently and merge.

    ``method`` has a ``name`` and a ``fuse(ClaimSet)`` for one
    component.  The components are the reduce groups of one MapReduce
    job (one attempt per task without a ``retry`` policy); the merged
    result is their :func:`merge_results`.  ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`) receives its ``mapreduce_*``
    counters.
    """
    # Imported here, where a fuse first needs the engine: importing
    # repro.serving.server (which reaches this module) loads no
    # repro.mapreduce.
    from repro.mapreduce.engine import MapReduceJob

    if len(claims) == 0:
        raise FusionError(f"{method.name}: empty claim set")

    # The mapper only keys each shard by its index.
    job: MapReduceJob = MapReduceJob(
        _component_mapper,
        functools.partial(_component_reducer, method),
        retry=retry,
        fault_plan=fault_plan,
        metrics=metrics,
    )
    stats = ShardStats()
    results: list[FusionResult] = []
    for _component, n_claims, result in job.run(
        enumerate(shard_claims(claims))
    ):
        stats.components += 1
        stats.component_claims.append(n_claims)
        results.append(result)
    merged = merge_results(method.name, results)
    stats.attempts = job.stats.attempts
    stats.retries = job.stats.retries
    stats.timed_out_tasks = job.stats.timed_out_tasks
    return merged, stats
