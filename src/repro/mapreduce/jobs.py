"""Fusion expressed as MapReduce jobs.

Dong et al. [13] scale VOTE/ACCU up with a three-stage MapReduce
pattern; the same structure is reproduced here on the local engine:

* **MRVote** — one job: map each claim to its item, reduce by majority.
* **MRAccu** — iterative: each round is one job keyed by item that
  re-scores values under the current source accuracies, followed by a
  second job keyed by source that re-estimates accuracies from the
  round's probabilities.

Results agree with the in-memory implementations (tested), so the jobs
serve as the scale-out path rather than a separate algorithm.

Every mapper/reducer/combiner here is a module-level function (round
state such as the accuracy table is bound with ``functools.partial``),
which keeps the job definitions picklable: the engine runs them in the
calling process, and a test ships them to a pool of its own to show
they would distribute with the same bytes out.
"""

from __future__ import annotations

import functools
import math

from repro.faults import FaultPlan, RetryPolicy
from repro.fusion.base import Claim, ClaimSet, FusionResult, Item
from repro.mapreduce.engine import MapReduceJob


def _vote_mapper(claim: Claim):
    yield claim.item, (claim.value, claim.source_id)


def _vote_reducer(item: Item, votes: list[tuple[str, str]]):
    sources_per_value: dict[str, set[str]] = {}
    for value, source in votes:
        sources_per_value.setdefault(value, set()).add(source)
    scores = {
        value: float(len(sources))
        for value, sources in sources_per_value.items()
    }
    winner = min(scores, key=lambda value: (-scores[value], value))
    yield item, winner, scores


def mr_vote(
    claims: ClaimSet,
    *,
    partitions: int = 4,
    retry: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
) -> FusionResult:
    """VOTE as a single MapReduce job."""
    job: MapReduceJob = MapReduceJob(
        _vote_mapper,
        _vote_reducer,
        partitions=partitions,
        retry=retry,
        fault_plan=fault_plan,
    )
    result = FusionResult("mr-vote")
    for item, winner, scores in job.run(claims):
        result.decide(item, [winner])
        total = sum(scores.values())
        for value, score in scores.items():
            result.belief[(item, value)] = score / total if total else 0.0
    result.iterations = 1
    return result


def _accu_score_mapper(claim: Claim):
    yield claim.item, claim


def _accu_score_reducer(
    acc_snapshot: dict[str, float],
    n_false_values: int,
    min_accuracy: float,
    max_accuracy: float,
    item: Item,
    item_claims: list[Claim],
):
    votes: dict[str, float] = {}
    for claim in item_claims:
        source_accuracy = min(
            max(acc_snapshot[claim.source_id], min_accuracy),
            max_accuracy,
        )
        votes[claim.value] = votes.get(claim.value, 0.0) + math.log(
            n_false_values * source_accuracy / (1.0 - source_accuracy)
        )
    top = max(votes.values())
    weights = {value: math.exp(vote - top) for value, vote in votes.items()}
    total = sum(weights.values())
    for claim in item_claims:
        yield item, claim.value, claim.source_id, (
            weights[claim.value] / total
        )


def _accuracy_mapper(record):
    return [(record[2], (record[3], 1))]


def _accuracy_reducer(source, pairs):
    return [
        (source, sum(p for p, _ in pairs) / sum(c for _, c in pairs))
    ]


def _accuracy_combiner(_source, pairs):
    # The accuracy job shuffles (sum, count) pairs, not averages: a
    # per-partition combiner must stay associative to be exact.
    return [(sum(p for p, _ in pairs), sum(c for _, c in pairs))]


def mr_accu(
    claims: ClaimSet,
    *,
    n_false_values: int = 10,
    initial_accuracy: float = 0.8,
    rounds: int = 10,
    partitions: int = 4,
    min_accuracy: float = 0.05,
    max_accuracy: float = 0.99,
    retry: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
) -> FusionResult:
    """ACCU as alternating MapReduce rounds.

    Round structure (per Dong et al.'s scale-up):

    1. job keyed by **item**: compute value probabilities under the
       current accuracy table (broadcast like a distributed cache:
       the snapshot is bound into each round's reducer);
    2. job keyed by **source**: average the probabilities of each
       source's claims into its new accuracy.
    """
    claim_list = list(claims)
    accuracy = {source: initial_accuracy for source in claims.sources()}
    probabilities: dict[tuple[Item, str], float] = {}
    final_round = 0

    for final_round in range(1, rounds + 1):
        acc_snapshot = dict(accuracy)  # the broadcast side-input

        score_job: MapReduceJob = MapReduceJob(
            _accu_score_mapper,
            functools.partial(
                _accu_score_reducer,
                acc_snapshot,
                n_false_values,
                min_accuracy,
                max_accuracy,
            ),
            partitions=partitions,
            retry=retry,
            fault_plan=fault_plan,
        )
        scored = score_job.run(claim_list)

        probabilities = {}
        for item, value, _source, probability in scored:
            probabilities[(item, value)] = probability

        accuracy_job: MapReduceJob = MapReduceJob(
            _accuracy_mapper,
            _accuracy_reducer,
            combiner=_accuracy_combiner,
            partitions=partitions,
            retry=retry,
            fault_plan=fault_plan,
        )
        new_accuracy = {
            source: min(max(value, min_accuracy), max_accuracy)
            for source, value in accuracy_job.run(scored)
        }
        delta = max(
            abs(new_accuracy.get(source, accuracy[source]) - accuracy[source])
            for source in accuracy
        )
        accuracy.update(new_accuracy)
        if delta < 1e-4:
            break

    result = FusionResult("mr-accu")
    result.iterations = final_round
    result.source_quality = accuracy
    result.belief = probabilities
    for item in claims.items():
        values = claims.values_of(item)
        winner = min(
            values,
            key=lambda value: (-probabilities.get((item, value), 0.0), value),
        )
        result.decide(item, [winner])
    return result
