"""Pins on the Figure-1 build path of the smoke web world.

The build path got exact prefilters (query stream, lexical patterns,
attribute resolution) whose whole contract is *same bytes out, less
work*.  Two child processes build the smoke world (the one
``test_pipeline.py`` runs) under ``PYTHONHASHSEED=0`` and ``=1``;
their summaries are held against values taken at the commit before
the filters (``23cb693``), where the work counts below fail.
"""

import json

import pytest

from tests.conftest import run_python

# Taken at the parent commit with this same helper.
PARENT_REPORT_DIGEST = "8e2e5a02a2246d41297ea838fa2865b7"
PARENT_CLAIMS_DIGEST = "e16036f168c4c8cf17ee6a0098e5acc3"
PARENT_FUSED_DIGEST_HASHSEED_0 = "caafa4afd034f486161e45ac0948aed0"
PARENT_RESOLVER_SCORED = 12_155  # 17.0 per query
PARENT_RESOLVER_QUERIES = 715
PARENT_LEVENSHTEIN_DP_CALLS = 5_856


def _build(hash_seed: int) -> dict:
    return json.loads(
        run_python(
            "-m", "tests.integration.smoke_build", hash_seed=hash_seed
        )
    )


@pytest.fixture(scope="module")
def builds():
    return {hash_seed: _build(hash_seed) for hash_seed in (0, 1)}


class TestSameBytesOut:
    def test_report_counts_equal_the_parent(self, builds):
        """``triple_counts``, ``attribute_counts``, ``query_stats`` and
        ``seed_sizes`` of the ``PipelineReport``."""
        for build in builds.values():
            assert build["report_digest"] == PARENT_REPORT_DIGEST, (
                build["report_pins"]
            )

    def test_claim_corpus_equals_the_parent(self, builds):
        for build in builds.values():
            assert build["claims_digest"] == PARENT_CLAIMS_DIGEST

    def test_fused_bytes_equal_the_parent(self, builds):
        assert builds[0]["fused_digest"] == PARENT_FUSED_DIGEST_HASHSEED_0


class TestLessWork:
    def test_resolver_scores_few_candidates_per_variant(self, builds):
        build = builds[0]
        assert build["resolver_queries"] == PARENT_RESOLVER_QUERIES
        assert build["resolver_scored"] / build["resolver_queries"] <= 8

    def test_levenshtein_dp_runs_on_a_fraction_of_the_parents_pairs(
        self, builds
    ):
        # Measured 1 230 (21 %): what is left are names that really do
        # share most of their 3-grams with the variant ("publication
        # date" / "publication year") and have to be told apart by
        # the DP.
        assert (
            builds[0]["levenshtein_dp_calls"]
            <= 0.25 * PARENT_LEVENSHTEIN_DP_CALLS
        )

    def test_work_counts_do_not_depend_on_the_hash_seed(self, builds):
        for key in ("resolver_scored", "resolver_queries",
                    "levenshtein_dp_calls", "claims"):
            assert builds[0][key] == builds[1][key], key


class TestHashSeed:
    def test_claim_corpus_is_hash_seed_independent(self, builds):
        assert builds[0]["claims_digest"] == builds[1]["claims_digest"]
        assert builds[0]["report_digest"] == builds[1]["report_digest"]

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "repro.fusion.compiled.compile_claims lays out the cover "
            "slots of an item claimed more than once in the iteration "
            "order of the set repro.fusion.base.claiming_sources() "
            "builds from the run's value -> claims dict (str hashes, so "
            "PYTHONHASHSEED; ClaimSet.sources_claiming() builds the same "
            "set for the oracles), and "
            "multitruth_fuse adds each item's per-source log-odds terms "
            "in that order: float addition is not associative, the last "
            "bits of the posteriors move.  Sorting that set makes the "
            "fused bytes equal under every hash seed — and different "
            "from today's under PYTHONHASHSEED=0, so the fix is its own "
            "PR with re-taken digests."
        ),
    )
    def test_fused_bytes_are_hash_seed_independent(self, builds):
        assert builds[0]["fused_digest"] == builds[1]["fused_digest"]
