"""Unit tests for connected-component sharded fusion."""

import pytest

from repro.errors import FusionError
from repro.faults import RetryPolicy
from repro.fusion.accu import Accu
from repro.fusion.base import Claim, ClaimSet
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.fusion.multitruth import MultiTruth
from repro.fusion.sharding import ShardStats, fuse_sharded, shard_claims
from repro.fusion.vote import Vote
from repro.synth.claims import ClaimWorldConfig, generate_claim_world


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
        sharded, stats = fuse_sharded(method, merged)
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
        sharded, _stats = fuse_sharded(method, merged)
        assert sharded.truths == serial.truths

    def test_stats_accounting(self):
        merged = three_component_claims()
        _result, stats = fuse_sharded(Vote(), merged)
        assert isinstance(stats, ShardStats)
        assert len(stats.component_claims) == 3
        assert sum(stats.component_claims) == len(merged)
        assert stats.largest_claims == max(stats.component_claims)

    def test_converged_at_is_slowest_component(self):
        merged = three_component_claims()
        result, _stats = fuse_sharded(Accu(), merged)
        assert result.converged_at is not None
        assert result.converged_at <= result.iterations
        per_shard = [Accu().fuse(s) for s in shard_claims(merged)]
        assert result.converged_at == max(r.converged_at for r in per_shard)

    def test_converged_at_none_when_any_component_caps(self):
        merged = three_component_claims()
        result, _stats = fuse_sharded(Accu(tolerance=0.0), merged)
        assert result.converged_at is None

    def test_rejects_bad_arguments(self):
        with pytest.raises(FusionError):
            fuse_sharded(Vote(), ClaimSet())


class TestKnowledgeFusionParallel:
    def test_parallel_matches_serial(self):
        merged = three_component_claims()
        serial = KnowledgeFusion().fuse(merged)
        parallel_method = KnowledgeFusion(retry=RetryPolicy())
        parallel = parallel_method.fuse(merged)
        assert parallel.truths == serial.truths
        assert parallel_method.last_shard_stats.components == 3

    def test_serial_run_clears_stats(self):
        merged = three_component_claims()
        method = KnowledgeFusion(retry=RetryPolicy())
        method.fuse(merged)
        assert method.last_shard_stats is not None
        method.retry = None
        method.fuse(merged)
        assert method.last_shard_stats is None
