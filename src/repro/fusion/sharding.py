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

:func:`fuse_sharded` is the one dispatch: it runs given shards as the
records of one :mod:`repro.mapreduce` job, a reduce group per shard,
for the job's per-task retries, fault points and ``mapreduce_*``
counters, and returns their results in shard order.  Every
``KnowledgeFusion.fuse`` is one such job over all its components; the
incremental engine runs one over the components a prime or a delta
finds missing from its cache, and none when nothing is.  The fusion
callable is bound into the reducer with ``functools.partial``, which
keeps the job picklable.  A component task that fails every allowed
attempt fails the whole call: nothing is merged from part of the
components.

:func:`patch_results` is the one merge.  Given every component result
it builds their union and applies the functional constraint; given
also the maps of the previous merge (the incremental engine keeps
them), it patches that merge's beliefs and source qualities by the
components that changed, and constrains only their items.

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

from repro.faults import FaultPlan, RetryPolicy
from repro.fusion.base import (
    Claim,
    ClaimSet,
    FusionResult,
    Item,
)

__all__ = [
    "MergedMaps",
    "ShardStats",
    "shard_claims",
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

    _items, order, starts = claims.spans()
    for begin, end in zip(starts, starts[1:]):
        first = order[begin].source_id
        if first not in parent:
            parent[first] = first
        if end - begin > 1:
            root = find(first)
            for source in {claim.source_id for claim in order[begin:end]}:
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
    """The disjoint union of ``results`` (every component, in order)
    as one result, with the functional constraint applied, plus the
    maps the next call patches it from.  ``constrain`` is the
    constraint: given a result, the truth set each item it changes is
    rebound to.

    Without a ``prior`` the maps are the union of every result's and
    every item is constrained.  With one, ``dropped`` are the results
    ``prior`` covers that are gone and ``fresh`` the new ones: the
    maps are ``prior``'s copies less ``dropped``'s keys plus
    ``fresh``'s, and only ``fresh``'s items are constrained — every
    other item keeps the rebinding ``prior`` recorded.  Components own
    disjoint items and sources, so the result is the same either way;
    a patch reads the maps of no result outside ``dropped`` and
    ``fresh``.

    ``truths`` is built whole, one ``dict.update`` per result, so it
    iterates in ``results`` order; a rebinding keeps an item's place.
    Truth sets are shared, not copied: a component result may stay
    cached while the merged one is handed out, and a ``frozenset``
    cannot be changed through either.  ``iterations`` and
    ``converged_at`` report the slowest component (``converged_at`` is
    None if any component hit its iteration cap).
    """
    merged = FusionResult(
        name,
        iterations=max((result.iterations for result in results), default=0),
    )
    converged = [result.converged_at for result in results]
    if converged and None not in converged:
        merged.converged_at = max(converged)
    for result in results:
        merged.truths.update(result.truths)
    if prior is None:
        prior, fresh = MergedMaps({}, {}, {}), results
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


def _component_reducer(
    fuse: Callable[[ClaimSet], FusionResult], component: int, shards: list
):
    (shard,) = shards
    yield component, fuse(shard)


def fuse_sharded(
    fuse: Callable[[ClaimSet], FusionResult],
    shards: list[ClaimSet],
    *,
    retry: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    metrics=None,
) -> tuple[list[FusionResult], ShardStats]:
    """``fuse`` of each shard, as one MapReduce job: the results,
    unmerged, in ``shards`` order, and the job's accounting.

    ``shards`` are connected components (:func:`shard_claims`); each is
    a record and a reduce group of the job (one attempt per task
    without a ``retry`` policy), so a component task that fails every
    allowed attempt fails the whole call.  ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`) receives its ``mapreduce_*``
    counters.
    """
    # Imported here, where a fuse first needs the engine: importing
    # repro.serving.server (which reaches this module) loads no
    # repro.mapreduce.
    from repro.mapreduce.engine import MapReduceJob

    # The mapper only keys each shard by its index.
    job: MapReduceJob = MapReduceJob(
        _component_mapper,
        functools.partial(_component_reducer, fuse),
        retry=retry,
        fault_plan=fault_plan,
        metrics=metrics,
    )
    # The job reduces the indexes in its own (sorted-``repr``) order.
    by_component = dict(job.run(enumerate(shards)))
    stats = ShardStats(
        components=len(shards),
        component_claims=list(map(len, shards)),
        attempts=job.stats.attempts,
        retries=job.stats.retries,
        timed_out_tasks=job.stats.timed_out_tasks,
    )
    return [by_component[index] for index in range(len(shards))], stats
