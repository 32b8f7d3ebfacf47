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

:func:`fuse_sharded` runs the components as reduce groups of the
:mod:`repro.mapreduce` engine, which provides per-task retries (why
``KnowledgeFusion`` comes here whenever a retry policy or fault plan
is set) and its determinism contract (reduce groups processed in
sorted key order, results merged deterministically).  The fusion
method is bound into the reducer, like the accuracy snapshot in
``mr_accu``.

Caveat: a component that satisfies its convergence tolerance early
exits on its *own* delta, while a global run exits on the maximum
delta across all components — identical truths in practice, but extra
rounds elsewhere can move beliefs by up to the tolerance.  Run with
``tolerance=0`` (fixed iterations) for bit-identical merged output;
the equivalence tests pin both regimes.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import FusionError
from repro.faults import FaultPlan, RetryPolicy
from repro.fusion.base import Claim, ClaimSet, FusionMethod, FusionResult

__all__ = [
    "ShardStats",
    "shard_claims",
    "merge_results",
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
    merged = FusionResult(name)
    converged: list[int | None] = []
    for result in results:
        merged.truths.update(result.truths)
        merged.belief.update(result.belief)
        merged.source_quality.update(result.source_quality)
        merged.iterations = max(merged.iterations, result.iterations)
        converged.append(result.converged_at)
    if converged and all(round_ is not None for round_ in converged):
        merged.converged_at = max(converged)  # type: ignore[type-var]
    return merged


def _shard_mapper(mapping: dict[str, int], claim: Claim):
    yield mapping[claim.source_id], claim


def _shard_reducer(method: FusionMethod, component: int, claims: list[Claim]):
    yield component, len(claims), method.fuse(ClaimSet(claims))


def fuse_sharded(
    method: FusionMethod,
    claims: ClaimSet,
    *,
    retry: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    metrics=None,
) -> tuple[FusionResult, ShardStats]:
    """Fuse each connected component independently and merge.

    Components are the reduce groups of one MapReduce job; the merged
    result is their :func:`merge_results`.  ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`) is handed to the underlying
    job, which publishes its ``mapreduce_*`` counters there.
    """
    # Imported here: repro.mapreduce.jobs imports repro.fusion.base, and
    # only this function needs the engine.
    from repro.mapreduce.engine import MapReduceJob

    if len(claims) == 0:
        raise FusionError(f"{method.name}: empty claim set")

    mapping = _component_map(claims)
    # One map partition: the engine splits partitions round-robin, and
    # more than one would interleave claim order inside each reduce
    # group, shifting float accumulation order at ULP level.  The map
    # side is a trivial tagging pass; all the work is in the reduce
    # groups.
    job: MapReduceJob = MapReduceJob(
        functools.partial(_shard_mapper, mapping),
        functools.partial(_shard_reducer, method),
        partitions=1,
        retry=retry,
        fault_plan=fault_plan,
        metrics=metrics,
    )
    stats = ShardStats()
    results: list[FusionResult] = []
    for _component, n_claims, result in job.run(claims):
        stats.components += 1
        stats.component_claims.append(n_claims)
        results.append(result)
    merged = merge_results(method.name, results)
    stats.attempts = job.stats.attempts
    stats.retries = job.stats.retries
    stats.timed_out_tasks = job.stats.timed_out_tasks
    return merged, stats
