"""Scale-up — fusion as the fuse's MapReduce job (Sec. 3.1 / Dong et al. [13]).

Builds claim sets of 4, 16 and 64 independent claim worlds (item and
source ids prefixed per world, so each world is one connected
component) and runs VOTE and ACCU both in memory over the whole set
and as the dispatch every ``KnowledgeFusion.fuse`` runs —
``shard_claims``, one ``fuse_sharded`` job (a reduce group per
component) and the ``patch_results`` merge.  Expected shape: identical
truths at every size (at ``tolerance=0`` a component's fuse replays
the global run's float operations), one reduce group per world, and
wall time growing with the claim count.
"""

import time

import pytest

from benchmarks.conftest import emit_report
from repro.evalx.tables import render_table
from repro.fusion.accu import Accu
from repro.fusion.base import Claim, ClaimSet
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.fusion.sharding import fuse_sharded, patch_results, shard_claims
from repro.fusion.vote import Vote
from repro.synth.claims import ClaimWorldConfig, generate_claim_world

WORLD_COUNTS = [4, 16, 64]


def worlds_claims(worlds: int) -> ClaimSet:
    """``worlds`` claim worlds, ids prefixed per world: one component each."""
    claims = ClaimSet()
    for index in range(worlds):
        world = generate_claim_world(
            ClaimWorldConfig(seed=47 + index, n_items=25, n_sources=10)
        )
        prefix = f"w{index:03d}/"
        for claim in world.claims:
            claims.add(
                Claim(
                    item=(prefix + claim.item[0], claim.item[1]),
                    value=claim.value,
                    lexical=claim.lexical,
                    source_id=prefix + claim.source_id,
                    extractor_id=claim.extractor_id,
                    confidence=claim.confidence,
                )
            )
    return claims


def as_job(method, claims: ClaimSet):
    """``method`` over ``claims`` as the fuse's MapReduce job, merged."""
    results, _stats = fuse_sharded(method.fuse, shard_claims(claims))
    return patch_results(method.name, results)[0]


def _timed(run):
    started = time.perf_counter()
    result = run()
    return result, time.perf_counter() - started


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.1f}ms"


@pytest.fixture(scope="module")
def sweep():
    rows = []
    checks = []
    for worlds in WORLD_COUNTS:
        claims = worlds_claims(worlds)
        vote, vote_seconds = _timed(lambda: Vote().fuse(claims))
        mr_vote, mr_vote_seconds = _timed(lambda: as_job(Vote(), claims))
        accu = Accu(tolerance=0.0, max_iterations=5)
        memory_accu, accu_seconds = _timed(lambda: accu.fuse(claims))
        mr_accu, mr_accu_seconds = _timed(lambda: as_job(accu, claims))
        fusion = KnowledgeFusion(tolerance=0.0)
        _result, fusion_seconds = _timed(lambda: fusion.fuse(claims))
        components = fusion.last_shard_stats.components

        vote_equal = mr_vote.truths == vote.truths
        accu_equal = mr_accu.truths == memory_accu.truths
        checks.append((worlds, vote_equal, accu_equal, components))
        rows.append(
            [
                worlds,
                len(claims),
                _ms(vote_seconds),
                _ms(mr_vote_seconds),
                _ms(accu_seconds),
                _ms(mr_accu_seconds),
                _ms(fusion_seconds),
                "yes" if vote_equal else "NO",
                "yes" if accu_equal else "NO",
                components,
            ]
        )
    return rows, checks


def test_scalability_report(sweep, benchmark):
    rows, checks = sweep
    claims = worlds_claims(16)
    benchmark.pedantic(
        lambda: as_job(Vote(), claims), rounds=3, iterations=1
    )
    table = render_table(
        [
            "worlds", "claims", "in-memory VOTE", "MR VOTE",
            "in-memory ACCU", "MR ACCU", "KnowledgeFusion",
            "VOTE equal", "ACCU equal", "components",
        ],
        rows,
        title="Scale-up: fusion as the fuse's MapReduce job",
    )
    emit_report("scalability", table)

    for worlds, vote_equal, accu_equal, components in checks:
        assert vote_equal, worlds
        assert accu_equal, worlds
        assert components == worlds
