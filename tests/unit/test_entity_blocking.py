"""Unit tests for the entity blocking subsystem.

Covers MinHash/LSH determinism (in-process and across interpreter
processes), collision-probability sanity bounds, the exact q-gram
misspelling blocker, posting caps, the blocked linker cascade, and the
``blocking_*`` metrics bridge (including schema-validator coverage).
"""

import json
import random
import subprocess
import sys

import pytest

from repro.entity.blocking import (
    BlockingStats,
    MinHashLSH,
    QGramIndex,
    SurfaceBlockingIndex,
    shingle_surface,
)
from repro.entity.linking import EntityLinker
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import validate_metrics
from repro.rdf.ontology import Entity
from repro.textproc.similarity import levenshtein

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _word(rng, lo=4, hi=12):
    return "".join(rng.choice(_LETTERS) for _ in range(rng.randint(lo, hi)))


def _typo(rng, word):
    i = rng.randrange(len(word))
    return word[:i] + rng.choice(_LETTERS) + word[i + 1:]


class TestShingles:
    def test_tokens_and_char_grams(self):
        shingles = shingle_surface("university of adelaide")
        assert "university" in shingles
        assert "uni" in shingles
        assert "ity" in shingles

    def test_short_surface_contributes_itself(self):
        assert shingle_surface("ab") == frozenset({"ab"})

    def test_empty_surface(self):
        assert shingle_surface("") == frozenset()


class TestMinHashDeterminism:
    def test_same_seed_same_signature(self):
        shingles = shingle_surface("university of adelaide")
        first = MinHashLSH(seed=2015).signature(shingles)
        second = MinHashLSH(seed=2015).signature(shingles)
        assert first == second

    def test_different_seed_different_signature(self):
        shingles = shingle_surface("university of adelaide")
        assert (
            MinHashLSH(seed=2015).signature(shingles)
            != MinHashLSH(seed=2016).signature(shingles)
        )

    def test_signature_stable_across_processes(self):
        script = (
            f"import sys; sys.path[:0] = {sys.path!r}\n"
            "import json\n"
            "from repro.entity.blocking import MinHashLSH, shingle_surface\n"
            "lsh = MinHashLSH(seed=2015)\n"
            "sigs = [lsh.signature(shingle_surface(s))\n"
            "        for s in ('university of adelaide', 'france', 'x')]\n"
            "print(json.dumps(sigs))\n"
        )
        runs = [
            json.loads(
                subprocess.run(
                    [sys.executable, "-c", script],
                    capture_output=True, text=True, check=True,
                ).stdout
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        lsh = MinHashLSH(seed=2015)
        local = [
            list(lsh.signature(shingle_surface(s)))
            for s in ("university of adelaide", "france", "x")
        ]
        assert runs[0] == local

    def test_buckets_stable_across_instances(self):
        rng = random.Random(7)
        surfaces = [_word(rng) for _ in range(200)]
        built = []
        for _ in range(2):
            lsh = MinHashLSH(seed=2015)
            for i, surface in enumerate(surfaces):
                lsh.add(i, shingle_surface(surface))
            built.append(sorted(lsh.bucket_sizes()))
        assert built[0] == built[1]

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            MinHashLSH(num_perm=32, bands=5)
        with pytest.raises(ValueError):
            MinHashLSH(num_perm=0, bands=1)


class TestCollisionBounds:
    """Sanity bounds on LSH collision behaviour (seeded, so exact)."""

    def test_identical_sets_always_collide(self):
        lsh = MinHashLSH()
        shingles = shingle_surface("university of adelaide")
        lsh.add(0, shingles)
        found = set()
        lsh.candidates(shingles, found)
        assert 0 in found

    def test_misspelled_pairs_mostly_collide(self):
        # One-char typos keep shingle Jaccard around 0.5+, where the
        # 16x2 banding collides with probability ~0.99.
        rng = random.Random(42)
        words = {_word(rng, 8, 12) for _ in range(200)}
        lsh = MinHashLSH()
        words = sorted(words)
        for i, word in enumerate(words):
            lsh.add(i, shingle_surface(word))
        hits = 0
        for i, word in enumerate(words):
            found = set()
            lsh.candidates(shingle_surface(_typo(rng, word)), found)
            hits += i in found
        assert hits >= 0.9 * len(words)

    def test_unrelated_pairs_rarely_collide(self):
        rng = random.Random(43)
        indexed = [_word(rng) for _ in range(300)]
        lsh = MinHashLSH()
        for i, word in enumerate(indexed):
            lsh.add(i, shingle_surface(word))
        total = 0
        probes = 100
        for _ in range(probes):
            found = set()
            lsh.candidates(shingle_surface(_word(rng)), found)
            total += len(found)
        # Random words share few shingles; the average candidate set
        # must stay a small fraction of the indexed pool.
        assert total / probes <= 0.05 * len(indexed)


class TestSurfaceBlockingIndex:
    def test_candidates_sorted(self):
        index = SurfaceBlockingIndex()
        for member, surface in ((4, "alpha one"), (1, "alpha two"), (3, "alpha three")):
            index.add(member, surface, frozenset(surface.split()))
        found = index.candidates("alpha", frozenset({"alpha"}))
        assert found == sorted(found)
        assert set(found) == {1, 3, 4}

    def test_token_cap_skips_saturated_postings(self):
        capped = SurfaceBlockingIndex(token_cap=1)
        uncapped = SurfaceBlockingIndex()
        for index in (capped, uncapped):
            index.add(0, "alpha zebra", frozenset({"alpha", "zebra"}))
            index.add(1, "alpha quail", frozenset({"alpha", "quail"}))
        probe = ("alpha", frozenset({"alpha"}))
        assert set(uncapped.candidates(*probe)) == {0, 1}
        assert set(capped.candidates(*probe)) <= set(uncapped.candidates(*probe))

    def test_pair_postings(self):
        index = SurfaceBlockingIndex()
        index.add(0, "wholly unrelated", frozenset({"wholly", "unrelated"}))
        index.add_pair(0, ("population", "1000"))
        found = index.candidates(
            "zzzz", frozenset({"zzzz"}), pairs=[("population", "1000")]
        )
        assert 0 in found

    def test_len_counts_adds(self):
        index = SurfaceBlockingIndex()
        assert len(index) == 0
        index.add(0, "one", frozenset({"one"}))
        assert len(index) == 1


class TestQGramIndexExactness:
    def test_covers_full_misspelling_window(self):
        # Exhaustive check of the exactness guarantee: every indexed
        # name within edit distance 2 and length difference 2 of a
        # probe must appear in the candidate set.  A small alphabet
        # makes near pairs common.
        rng = random.Random(11)
        alphabet = "abcdef"
        words = sorted({
            "".join(rng.choice(alphabet) for _ in range(rng.randint(3, 14)))
            for _ in range(250)
        })
        index = QGramIndex()
        for member, word in enumerate(words):
            index.add(member, word)
        probes = words + [
            _typo(rng, rng.choice(words)) for _ in range(100)
        ]
        for probe in probes:
            found = set()
            index.candidates(probe, found)
            for member, word in enumerate(words):
                if (
                    abs(len(probe) - len(word)) <= 2
                    and levenshtein(probe, word, limit=2) <= 2
                ):
                    assert member in found, (probe, word)


class TestBlockedLinkerCascade:
    def _catalog(self):
        rng = random.Random(5)
        catalog = {
            f"filler {_word(rng)} {i:03d}": Entity(f"f/{i}", f"F{i}", "Thing")
            for i in range(80)
        }
        catalog["university of adelaide"] = Entity(
            "univ/1", "University of Adelaide", "Thing"
        )
        return catalog

    def test_blocked_path_links_and_prunes(self):
        linker = EntityLinker(self._catalog(), brute_floor=0)
        decision = linker.link("universty of adelaide")
        assert decision.linked
        assert decision.entity.entity_id == "univ/1"
        stats = linker.blocking_stats
        assert stats.queries == 1
        assert stats.fallback_queries == 0
        assert stats.pruned > 0
        assert stats.tier3_scored < len(self._catalog())

    def test_exact_hit_counts_tier1(self):
        linker = EntityLinker(self._catalog(), brute_floor=0)
        assert linker.link("University of Adelaide").score == 1.0
        assert linker.blocking_stats.tier1_hits == 1
        assert linker.blocking_stats.queries == 0

    def test_small_pool_falls_back_to_brute(self):
        linker = EntityLinker(self._catalog())  # pool of 81 > default floor
        small = EntityLinker(
            {"france": Entity("c/1", "France", "Country")}
        )
        assert small.link("Frances", class_name="Country").linked
        assert small.blocking_stats.fallback_queries == 1
        assert small.blocking_stats.queries == 0
        # and the large pool goes through tier 2
        linker.link("universty of adelaide")
        assert linker.blocking_stats.queries == 1

    def test_blocking_off_never_queries_index(self):
        # Off is a floor above the pool (81 entries): the full scan.
        linker = EntityLinker(self._catalog(), brute_floor=10**9)
        linker.link("universty of adelaide")
        assert linker.blocking_stats.queries == 0
        assert linker.blocking_stats.fallback_queries == 1


class TestBlockingMetrics:
    def test_publish_validates_against_schema(self):
        stats = BlockingStats("linker")
        stats.tier1_hits = 3
        stats.observe_candidates(5, 50)
        stats.observe_candidates(0, 10)
        stats.tier3_scored += 5
        stats.fallback_queries += 2
        index = SurfaceBlockingIndex()
        index.add(0, "alpha", frozenset({"alpha"}))
        index.add(1, "alpho", frozenset({"alpho"}))
        registry = MetricsRegistry()
        stats.publish(registry, index)
        snapshot = registry.snapshot()
        payload = snapshot.to_json_dict()
        assert validate_metrics(payload) == []
        counters = payload["counters"]
        assert counters["blocking_tier1_hits_total{site=linker}"] == 3
        assert counters["blocking_tier2_candidates_total{site=linker}"] == 5
        assert counters["blocking_tier3_scored_total{site=linker}"] == 5
        assert counters["blocking_candidates_pruned_total{site=linker}"] == 55
        assert counters["blocking_queries_total{site=linker}"] == 2
        assert counters["blocking_fallback_queries_total{site=linker}"] == 2
        histograms = payload["histograms"]
        assert histograms["blocking_candidates{site=linker}"]["count"] == 2
        assert histograms["blocking_bucket_size{site=linker}"]["count"] > 0

    def test_counters_are_deterministic_metrics(self):
        stats = BlockingStats("discovery")
        stats.observe_candidates(4, 40)
        registry = MetricsRegistry()
        stats.publish(registry)
        deterministic = registry.snapshot().deterministic_subset()
        assert (
            "blocking_queries_total{site=discovery}"
            in deterministic["counters"]
        )
