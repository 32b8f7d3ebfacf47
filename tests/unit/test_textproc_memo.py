"""Tests for the bounded similarity-cache layer.

The layer serves the two tag-path tables of Algorithm 1 (the only
memo tables that hit: 99.9 % in a pipeline run); the uncached
reference of a memoized function is its ``__wrapped__``.
"""

import pytest

from repro.htmldom.tagpath import (
    RelativeTagPath,
    path_similarity,
    sequence_similarity,
)
from repro.textproc import similarity
from repro.textproc.memo import (
    BoundedCache,
    clear_similarity_caches,
    memoized_pair,
    similarity_cache_stats,
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


class TestBoundedCache:
    def test_hit_and_miss_counters(self):
        cache = BoundedCache("t", max_size=8)
        assert cache.lookup("k") is not None  # a miss sentinel
        assert cache.misses == 1 and cache.hits == 0
        cache.store("k", 42)
        assert cache.lookup("k") == 42
        assert cache.hits == 1 and cache.misses == 1
        assert cache.stats().hit_rate == 0.5

    def test_bounded_size_with_evictions(self):
        cache = BoundedCache("t", max_size=4)
        for i in range(10):
            cache.store(i, i)
        assert len(cache) == 4
        assert cache.evictions == 6
        # FIFO: the oldest keys are gone, the newest survive.
        assert cache.lookup(9) == 9
        from repro.textproc.memo import _MISS

        assert cache.lookup(0) is _MISS

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            BoundedCache("t", max_size=0)


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
        assert f.cache.misses == 1
        f("b", "aa")
        assert f.cache.hits == 1

    def test_kwargs_partition_the_key(self):
        @memoized_pair("test-pair-kw", max_size=16)
        def f(a, b, scale=1):
            return (len(a) + len(b)) * scale

        assert f("a", "b", scale=1) == 2
        assert f("a", "b", scale=3) == 6  # no collision
        assert f.cache.misses == 2


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
        assert path_similarity.cache.hits >= len(pairs)
        uncached = [
            [f.__wrapped__(a, b) for a, b in args] for f, args in cases
        ]
        assert cold == warm == uncached

    def test_string_similarity_is_not_memoized(self):
        """The tables that never hit are gone: the registry holds the
        two tag-path tables and the string measures are plain
        functions."""
        tables = {
            name for name in similarity_cache_stats()
            if not name.startswith("test-pair-")  # TestMemoizedPair's own
        }
        assert tables == {"tagpath-sequence", "tagpath-relative"}
        for name in ("levenshtein", "jaro_winkler", "token_jaccard",
                     "name_similarity"):
            fn = getattr(similarity, name)
            assert not hasattr(fn, "cache"), name
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
        snapshot = similarity_cache_stats()
        assert {"tagpath-sequence", "tagpath-relative"} <= set(snapshot)
        entry = snapshot["tagpath-relative"].as_dict()
        assert {"hits", "misses", "evictions", "size", "max_size",
                "hit_rate"} <= set(entry)
        assert entry["misses"] == 1
