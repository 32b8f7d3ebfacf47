"""Unit tests for the synthetic delta-stream generator.

The digests below were computed against the original
``list.remove``-based retraction bookkeeping; they pin the generator's
byte-exact output for a spread of seeds and configurations so the
tombstone/swap-free rewrite (O(1) retractions instead of O(n)) is
provably a pure performance change.  Any edit that reorders the
retraction candidate list — and hence shifts every later ``rng.sample``
draw — fails here before it can silently invalidate the incremental
replay corpora.

They were re-taken once, when a claim set took one canonical order:
the worlds' claims reach the generator in claim-key order, not in the
order the world generator added them.  The generator fed the
claim-key order before that change prints the same digests.
"""

import hashlib
import json

from repro.synth.claims import ClaimWorldConfig, generate_claim_world
from repro.synth.deltas import (
    DeltaStreamConfig,
    generate_delta_stream,
    scored_from_claims,
)

# name -> (world config, stream config, sha256 of the canonical stream)
PINNED = {
    "prop-3": (
        ClaimWorldConfig(seed=3, n_items=10, n_sources=5),
        DeltaStreamConfig(seed=3, parts=3),
        "7d0988c47197f51f6f6f6f6c2210d39c425f3a070b550a47ecc421f1cb2d3849",
    ),
    "prop-11": (
        ClaimWorldConfig(seed=11, n_items=10, n_sources=5),
        DeltaStreamConfig(seed=11, parts=3),
        "b7283ac31995a8d907b3ce768f7ef832bc9e78d6690ecd7fbc21a023ef1e7ac3",
    ),
    "prop-29": (
        ClaimWorldConfig(seed=29, n_items=10, n_sources=5),
        DeltaStreamConfig(seed=29, parts=3),
        "5028b8736ebce5bfdf08c9a7aadf0b1cc3793a3b8a5bca719a738b3ce517c0b7",
    ),
    "heavy-23": (
        ClaimWorldConfig(seed=23, n_items=30, n_sources=6),
        DeltaStreamConfig(
            seed=23, parts=8, base_fraction=0.3,
            retract_fraction=0.5, readd_fraction=0.5,
        ),
        "07da3756da1888e81126a801c8de0279c2b9f9dda72bb3f18db5aea475390928",
    ),
    "churn-41": (
        ClaimWorldConfig(seed=41, n_items=25, n_sources=5),
        DeltaStreamConfig(
            seed=41, parts=12, base_fraction=0.2,
            retract_fraction=0.8, readd_fraction=0.25,
        ),
        "213295800d999fd064708c5ba0a8eb841bb23292d4da568571734d13bf522445",
    ),
}


def _key(scored):
    triple = scored.triple
    return [
        triple.subject,
        triple.predicate,
        triple.obj.lexical,
        scored.provenance.source_id,
        scored.provenance.extractor_id,
        round(scored.confidence, 12),
    ]


def stream_digest(base, deltas) -> str:
    """Order-sensitive sha256 of a (base, deltas) decomposition."""
    payload = {
        "base": [_key(scored) for scored in base],
        "deltas": [
            {
                "label": delta.label,
                "added": [_key(scored) for scored in delta.added],
                "retracted": [
                    [triple.subject, triple.predicate, triple.obj.lexical]
                    for triple in delta.retracted
                ],
            }
            for delta in deltas
        ],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestPinnedStreams:
    def test_streams_match_pre_rewrite_bytes(self):
        for name, (world_cfg, stream_cfg, expected) in PINNED.items():
            world = generate_claim_world(world_cfg)
            base, deltas = generate_delta_stream(
                scored_from_claims(world.claims), stream_cfg
            )
            assert stream_digest(base, deltas) == expected, (
                f"stream {name} diverged from the pinned pre-rewrite bytes"
            )


class TestInvariants:
    def test_retractions_only_target_live_triples(self):
        world = generate_claim_world(
            ClaimWorldConfig(seed=23, n_items=30, n_sources=6)
        )
        base, deltas = generate_delta_stream(
            scored_from_claims(world.claims),
            DeltaStreamConfig(
                seed=23, parts=8, base_fraction=0.3,
                retract_fraction=0.5, readd_fraction=0.5,
            ),
        )
        live = {scored.triple for scored in base}
        for delta in deltas:
            for triple in delta.retracted:
                assert triple in live, "retracted a non-live triple"
            live -= set(delta.retracted)
            live |= {scored.triple for scored in delta.added}
            assert live, "stream emptied the store"

    def test_no_duplicate_retractions_within_a_delta(self):
        world = generate_claim_world(
            ClaimWorldConfig(seed=41, n_items=25, n_sources=5)
        )
        _base, deltas = generate_delta_stream(
            scored_from_claims(world.claims),
            DeltaStreamConfig(
                seed=41, parts=12, base_fraction=0.2,
                retract_fraction=0.8, readd_fraction=0.25,
            ),
        )
        for delta in deltas:
            assert len(delta.retracted) == len(set(delta.retracted))

    def test_long_stream_smoke(self):
        """A long, churny stream generates without quadratic blowup."""
        world = generate_claim_world(
            ClaimWorldConfig(seed=9, n_items=40, n_sources=8)
        )
        base, deltas = generate_delta_stream(
            scored_from_claims(world.claims),
            DeltaStreamConfig(
                seed=9, parts=40, base_fraction=0.1,
                retract_fraction=0.9, readd_fraction=0.5,
            ),
        )
        assert len(deltas) == 40
        assert base
