"""Scale-up — fusion as MapReduce jobs (Sec. 3.1 / Dong et al. [13]).

Runs VOTE and ACCU both in memory and on the local MapReduce engine
over growing claim volumes.  Expected shape: identical decisions at
every size (the jobs are the same algorithm), near-linear growth of the
MapReduce wall time, and constant decision quality.
"""

import time

import pytest

from benchmarks.conftest import emit_report
from repro.evalx.tables import format_ratio, render_table
from repro.fusion.accu import Accu
from repro.fusion.vote import Vote
from repro.mapreduce.jobs import mr_accu, mr_vote
from repro.synth.claims import ClaimWorldConfig, generate_claim_world

ITEM_COUNTS = [100, 400, 1600]


@pytest.fixture(scope="module")
def sweep():
    rows = []
    agreements = []
    for n_items in ITEM_COUNTS:
        world = generate_claim_world(
            ClaimWorldConfig(seed=47, n_items=n_items, n_sources=10)
        )
        started = time.perf_counter()
        memory_vote = Vote().fuse(world.claims)
        memory_seconds = time.perf_counter() - started

        started = time.perf_counter()
        distributed_vote = mr_vote(world.claims, partitions=4)
        distributed_seconds = time.perf_counter() - started

        vote_agree = distributed_vote.truths == memory_vote.truths

        memory_accu = Accu(max_iterations=5).fuse(world.claims)
        distributed_accu = mr_accu(world.claims, rounds=5, partitions=4)
        accu_agree = sum(
            1
            for item, truth in memory_accu.truths.items()
            if distributed_accu.truths.get(item) == truth
        ) / len(memory_accu.truths)

        agreements.append((vote_agree, accu_agree))
        rows.append(
            [
                n_items,
                len(world.claims),
                f"{memory_seconds * 1000:.1f}ms",
                f"{distributed_seconds * 1000:.1f}ms",
                "yes" if vote_agree else "NO",
                format_ratio(accu_agree),
                format_ratio(world.precision_of(distributed_accu.truths)),
            ]
        )
    return rows, agreements


def test_scalability_report(sweep, benchmark):
    rows, agreements = sweep
    world = generate_claim_world(
        ClaimWorldConfig(seed=47, n_items=400, n_sources=10)
    )
    benchmark.pedantic(
        lambda: mr_vote(world.claims, partitions=4), rounds=3, iterations=1
    )
    table = render_table(
        [
            "items", "claims", "in-memory VOTE", "MR VOTE",
            "VOTE agrees", "ACCU agreement", "MR ACCU precision",
        ],
        rows,
        title="Scale-up: fusion on the MapReduce engine",
    )
    emit_report("scalability", table)

    for vote_agree, accu_agree in agreements:
        assert vote_agree
        assert accu_agree > 0.95
