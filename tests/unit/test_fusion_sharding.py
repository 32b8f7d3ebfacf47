"""Unit tests for connected-component sharded fusion."""

import pytest

from repro.errors import FusionError, RetryExhaustedError
from repro.faults import FaultPlan, InjectedFault, RetryPolicy
from repro.fusion.accu import Accu
from repro.fusion.base import Claim, ClaimSet
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.fusion.multitruth import MultiTruth
from repro.fusion.sharding import ShardStats, fuse_sharded, shard_claims
from repro.fusion.vote import Vote
from repro.incremental import ClaimDelta, canonical_claims
from repro.rdf.store import TripleStore
from repro.synth.claims import ClaimWorldConfig, generate_claim_world
from repro.synth.deltas import scored_from_claims
from tests.conftest import fuse_by_component


def namespaced_world(seed, namespace, **overrides):
    """A claim world with item/source ids prefixed by ``namespace``.

    Distinct namespaces share no sources and no items, so a merged set
    splits back into one connected component per world.
    """
    config = ClaimWorldConfig(
        seed=seed, n_items=overrides.pop("n_items", 40),
        n_sources=overrides.pop("n_sources", 6), **overrides
    )
    world = generate_claim_world(config)
    claims = ClaimSet()
    for c in world.claims:
        claims.add(
            Claim(
                item=(namespace + c.item[0], c.item[1]),
                value=c.value,
                lexical=c.lexical,
                source_id=namespace + c.source_id,
                extractor_id=c.extractor_id,
                confidence=c.confidence,
            )
        )
    return claims


def three_component_claims():
    merged = ClaimSet()
    for i, seed in enumerate([11, 22, 33]):
        for c in namespaced_world(seed, f"w{i}:"):
            merged.add(c)
    return merged


def twelve_component_claims():
    """Twelve worlds, ``w00:`` … ``w11:``: more components than the
    ten whose indexes sort the same as numbers and as ``repr``s."""
    merged = ClaimSet()
    for i in range(12):
        for c in namespaced_world(100 + i, f"w{i:02d}:", n_items=8):
            merged.add(c)
    return merged


class TestShardClaims:
    def test_splits_into_components(self):
        merged = three_component_claims()
        shards = shard_claims(merged)
        assert len(shards) == 3
        assert sum(len(s) for s in shards) == len(merged)
        # No source straddles two shards.
        seen = set()
        for shard in shards:
            assert not (shard.sources() & seen)
            seen |= shard.sources()

    def test_single_component_world(self):
        claims = generate_claim_world(
            ClaimWorldConfig(seed=3, n_items=30, n_sources=5)
        ).claims
        assert len(shard_claims(claims)) == 1

    def test_claims_keep_relative_order(self):
        merged = three_component_claims()
        shards = shard_claims(merged)
        position = {id(c): i for i, c in enumerate(merged)}
        for shard in shards:
            order = [position[id(c)] for c in shard]
            assert order == sorted(order)


class TestFuseSharded:
    @pytest.mark.parametrize(
        "method", [Accu(tolerance=0.0), MultiTruth(tolerance=0.0)],
        ids=["accu", "multitruth"],
    )
    def test_matches_serial_at_fixed_iterations(self, method):
        merged = three_component_claims()
        serial = method.fuse(merged)
        sharded, stats = fuse_by_component(method, merged)
        assert sharded.truths == serial.truths
        assert sharded.iterations == serial.iterations
        assert sharded.belief.keys() == serial.belief.keys()
        for key, score in serial.belief.items():
            assert sharded.belief[key] == pytest.approx(score, abs=1e-9)
        for source, quality in serial.source_quality.items():
            assert sharded.source_quality[source] == pytest.approx(
                quality, abs=1e-9
            )
        assert stats.components == 3

    def test_truths_match_with_early_exit(self):
        # Default tolerances: components may stop at different rounds
        # than the global run, but the decided truths still agree.
        merged = three_component_claims()
        method = MultiTruth()
        serial = method.fuse(merged)
        sharded, _stats = fuse_by_component(method, merged)
        assert sharded.truths == serial.truths

    def test_stats_accounting(self):
        merged = three_component_claims()
        _result, stats = fuse_by_component(Vote(), merged)
        assert isinstance(stats, ShardStats)
        assert len(stats.component_claims) == 3
        assert sum(stats.component_claims) == len(merged)
        assert stats.largest_claims == max(stats.component_claims)

    def test_converged_at_is_slowest_component(self):
        merged = three_component_claims()
        result, _stats = fuse_by_component(Accu(), merged)
        assert result.converged_at is not None
        assert result.converged_at <= result.iterations
        per_shard = [Accu().fuse(s) for s in shard_claims(merged)]
        assert result.converged_at == max(r.converged_at for r in per_shard)

    def test_converged_at_none_when_any_component_caps(self):
        merged = three_component_claims()
        result, _stats = fuse_by_component(Accu(tolerance=0.0), merged)
        assert result.converged_at is None

    def test_results_come_back_in_shard_order(self):
        # The job reduces component 10 before component 2 (it sorts
        # its keys by ``repr``); the caller gets them in shard order.
        shards = shard_claims(twelve_component_claims())
        assert len(shards) == 12
        results, stats = fuse_sharded(Vote().fuse, shards)
        assert [result.canonical_bytes() for result in results] == [
            Vote().fuse(shard).canonical_bytes() for shard in shards
        ]
        assert stats.components == 12
        assert stats.component_claims == [len(shard) for shard in shards]

    def test_rejects_bad_arguments(self):
        # An empty claim set is refused by the fuse, before any job.
        with pytest.raises(FusionError):
            KnowledgeFusion().fuse(ClaimSet())


class TestKnowledgeFusionParallel:
    def test_parallel_matches_serial(self):
        merged = three_component_claims()
        serial = KnowledgeFusion().fuse(merged)
        parallel_method = KnowledgeFusion(retry=RetryPolicy())
        parallel = parallel_method.fuse(merged)
        assert parallel.truths == serial.truths
        assert parallel_method.last_shard_stats.components == 3

    def test_a_retry_policy_does_not_change_the_beliefs(self):
        # One fuse path: a policy only decides whether a failed
        # component task is retried, at every tolerance.
        merged = three_component_claims()
        assert (
            KnowledgeFusion(retry=RetryPolicy()).fuse(merged).canonical_bytes()
            == KnowledgeFusion().fuse(merged).canonical_bytes()
        )

    def test_a_component_task_that_never_succeeds_fails_the_fuse(self):
        # Regression: a policy could once re-split the exhausted chunk
        # and drop its components, returning fewer items than the
        # claims hold without an error.
        fusion = KnowledgeFusion(
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
            fault_plan=FaultPlan().crash("reduce", index=0, attempts=0),
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            fusion.fuse(three_component_claims())
        assert isinstance(excinfo.value.__cause__, InjectedFault)

    def test_each_reduce_chunk_is_retried_on_its_own(self):
        # Three components, three reduce chunks; each crashes on its
        # first attempt and gets its own backoff before its retry.
        sleeps = []
        merged = three_component_claims()
        fusion = KnowledgeFusion(
            retry=RetryPolicy(
                max_attempts=2, backoff_base=0.5, sleep=sleeps.append
            ),
            fault_plan=FaultPlan().crash("reduce", index=None, attempts=1),
        )
        result = fusion.fuse(merged)
        clean = KnowledgeFusion().fuse(merged)
        assert result.truths == clean.truths
        assert result.belief == clean.belief
        stats = fusion.last_shard_stats
        assert (stats.attempts, stats.retries) == (7, 3)
        assert sleeps == [0.5] * 3

    def test_a_served_prime_equals_the_fuse(self):
        store = TripleStore()
        store.add_all(scored_from_claims(three_component_claims()))
        expected = KnowledgeFusion().fuse(canonical_claims(store.copy()))
        engine = KnowledgeFusion().begin_incremental(store)
        assert engine.components == 3
        assert engine.result.canonical_bytes() == expected.canonical_bytes()
        assert list(engine.result.truths) == list(expected.truths)
        # ... and so does a version re-fused from one dirty component.
        first = next(iter(engine.store.claims()))
        outcome = engine.apply_delta(ClaimDelta(retracted=[first.triple]))
        assert outcome.dirty_components == 1
        expected = KnowledgeFusion().fuse(
            canonical_claims(engine.store.copy())
        )
        assert engine.result.canonical_bytes() == expected.canonical_bytes()
        assert list(engine.result.truths) == list(expected.truths)

    def test_a_prime_iterates_truths_in_the_fuses_order(self):
        # Regression: the fuse once merged its components in the job's
        # reduce order (w00, w01, w10, w11, w02, ...) and a prime in
        # shard order, so the two results, equal in bytes, iterated
        # their truths differently past ten components.
        claims = twelve_component_claims()
        store = TripleStore()
        store.add_all(scored_from_claims(claims))
        fusion = KnowledgeFusion(tolerance=0.0, max_iterations=8)
        fused = fusion.fuse(canonical_claims(store.copy()))
        primed = fusion.begin_incremental(store).result
        assert list(fused.truths) == list(primed.truths)
        assert fused.canonical_bytes() == primed.canonical_bytes()
        assert len({item[0].split(":")[0] for item in fused.truths}) == 12
