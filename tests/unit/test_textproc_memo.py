"""Tests for the bounded similarity-cache layer.

The layer serves the two tag-path tables of Algorithm 1 (the only
memo tables that hit: 99.9 % in a pipeline run); the uncached
reference of a memoized function is its ``__wrapped__``, and the
counters are read the way an operator reads them: as the
``simcache_*`` series ``publish_cache_metrics`` exports.
"""

import pytest

from repro.htmldom.tagpath import (
    RelativeTagPath,
    path_similarity,
    sequence_similarity,
)
from repro.obs import MetricsRegistry
from repro.obs.metrics import metric_key, parse_key
from repro.textproc import similarity
from repro.textproc.memo import (
    clear_similarity_caches,
    memoized_pair,
    publish_cache_metrics,
)

_PATHS = [
    RelativeTagPath(("tr", "td"), "table", ("td",)),
    RelativeTagPath(("tr", "td"), "table", ("td", "div")),
    RelativeTagPath(("li",), "ul", ("li", "span")),
    RelativeTagPath((), "div", ()),
    RelativeTagPath(("tr", "td.key"), "table", ("td.value",)),
]


@pytest.fixture(autouse=True)
def _clean_caches():
    """Each test starts from, and leaves, empty caches."""
    clear_similarity_caches()
    yield
    clear_similarity_caches()


def _published(cache: str) -> dict[str, float]:
    """One table's ``simcache_*`` series, by short name."""
    registry = MetricsRegistry()
    publish_cache_metrics(registry)
    snapshot = registry.snapshot()
    labels = {"cache": cache}
    series = {
        short: snapshot.counters[metric_key(f"simcache_{short}_total", labels)]
        for short in ("hits", "misses", "evictions")
    }
    series["size"] = snapshot.gauges[metric_key("simcache_size", labels)]
    return series


class TestBoundedCache:
    """The table behind ``memoized_pair``: counted and bounded."""

    def test_hit_and_miss_counters(self):
        @memoized_pair("test-pair-count", max_size=8, symmetric=False)
        def f(a, b):
            return a + b

        assert f(1, 2) == 3
        assert _published("test-pair-count") == {
            "hits": 0, "misses": 1, "evictions": 0, "size": 1,
        }
        assert f(1, 2) == 3
        assert _published("test-pair-count") == {
            "hits": 1, "misses": 1, "evictions": 0, "size": 1,
        }

    def test_bounded_size_with_evictions(self):
        @memoized_pair("test-pair-bound", max_size=2, symmetric=False)
        def f(a, b):
            return a + b

        for i in range(7):
            f(i, 0)
            assert f.cache_info().currsize <= 2
        f(6, 0)  # the newest entry survived
        assert _published("test-pair-bound") == {
            "hits": 1, "misses": 7, "evictions": 5, "size": 2,
        }
        clear_similarity_caches()
        assert _published("test-pair-bound") == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0,
        }


class TestMemoizedPair:
    def test_computes_once_per_pair(self):
        calls = []

        @memoized_pair("test-pair-once", max_size=16)
        def f(a, b):
            calls.append((a, b))
            return len(a) + len(b)

        assert f("x", "yy") == 3
        assert f("x", "yy") == 3
        assert calls == [("x", "yy")]

    def test_symmetric_key_shares_entry(self):
        @memoized_pair("test-pair-sym", max_size=16)
        def f(a, b):
            return len(a) + len(b)

        f("aa", "b")
        assert _published("test-pair-sym")["misses"] == 1
        f("b", "aa")
        assert _published("test-pair-sym") == {
            "hits": 1, "misses": 1, "evictions": 0, "size": 1,
        }

    def test_kwargs_partition_the_key(self):
        @memoized_pair("test-pair-kw", max_size=16)
        def f(a, b, scale=1):
            return (len(a) + len(b)) * scale

        assert f("a", "b", scale=1) == 2
        assert f("a", "b", scale=3) == 6  # no collision
        assert _published("test-pair-kw")["misses"] == 2


class TestSimilarityFunctionsCached:
    def test_scores_identical_with_cache_on_and_off(self):
        pairs = [(a, b) for a in _PATHS for b in _PATHS]
        sequences = [(a.up + a.down, b.up + b.down) for a, b in pairs]
        cases = [
            (path_similarity, pairs),
            (sequence_similarity, sequences),
        ]
        cold = [[f(a, b) for a, b in args] for f, args in cases]
        # Warm pass: answered from the tables, must not drift.
        warm = [[f(a, b) for a, b in args] for f, args in cases]
        assert _published("tagpath-relative")["hits"] >= len(pairs)
        uncached = [
            [f.__wrapped__(a, b) for a, b in args] for f, args in cases
        ]
        assert cold == warm == uncached

    def test_string_similarity_is_not_memoized(self):
        """The tables that never hit are gone: the registry holds the
        two tag-path tables and the string measures are plain
        functions."""
        registry = MetricsRegistry()
        publish_cache_metrics(registry)
        tables = {
            parse_key(key)[1]["cache"] for key in registry.snapshot().gauges
        }
        assert {
            name for name in tables
            if not name.startswith("test-pair-")  # this file's own
        } == {"tagpath-sequence", "tagpath-relative"}
        for name in ("levenshtein", "jaro_winkler", "token_jaccard",
                     "name_similarity"):
            fn = getattr(similarity, name)
            assert not hasattr(fn, "cache_info"), name
            assert not hasattr(fn, "__wrapped__"), name

    def test_tagpath_similarity_cached_and_identical(self):
        left, right = _PATHS[0], _PATHS[1]
        cached = path_similarity(left, right)
        again = path_similarity(left, right)
        plain = path_similarity.__wrapped__(left, right)
        assert cached == again == plain
        assert left.similarity(right) == plain

    def test_stats_snapshot_shape(self):
        path_similarity(_PATHS[0], _PATHS[1])
        assert _published("tagpath-relative") == {
            "hits": 0, "misses": 1, "evictions": 0, "size": 1,
        }
        # One path pair scores its two arms: two sequence lookups.
        sequence = _published("tagpath-sequence")
        assert sequence["hits"] + sequence["misses"] == 2
