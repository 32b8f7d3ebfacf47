"""Bounded memoization for pure pairwise-similarity functions.

A memo table earns its place only where the same argument pair really
comes back.  Today that is the DOM extractor: Algorithm 1 scores every
candidate label's tag path against every induced pattern, and the same
(path, pattern) pairs recur on every page of a site that shares a
layout — the two tag-path tables in :mod:`repro.htmldom.tagpath` hit
99.9 % of their lookups in a pipeline run.  The string measures of
:mod:`repro.textproc.similarity` are *not* memoized: their pairs
practically never repeat, so their callers filter candidates instead
(see :mod:`repro.entity.blocking`).

The cache layer here is deliberately boring:

* **bounded** — each cache holds at most ``max_size`` entries and
  evicts in insertion (FIFO) order, so memory use cannot grow without
  limit on adversarial inputs;
* **observable** — every cache counts hits, misses and evictions;
  :func:`similarity_cache_stats` snapshots them and
  :func:`publish_cache_metrics` exports them as ``simcache_*`` series,
  which is how a table that does not hit gets noticed;
* **transparent** — a memoized function returns what the undecorated
  ``fn.__wrapped__`` returns (tested), cold or warm.

Caches are module-global.  The pipeline clears them at the top of
every ``run()``, so a run never depends on the runs before it.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

DEFAULT_MAX_SIZE = 65_536


@dataclass(slots=True)
class CacheStats:
    """A point-in-time snapshot of one cache's counters."""

    name: str
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    max_size: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "max_size": self.max_size,
            "hit_rate": round(self.hit_rate, 4),
        }


class BoundedCache:
    """A FIFO-bounded memo table with hit/miss/eviction counters.

    FIFO (rather than LRU) keeps the hot path to two dict operations;
    for the pairwise-similarity workloads here the working set either
    fits entirely (typical) or churns regardless of policy.
    """

    __slots__ = ("name", "max_size", "hits", "misses", "evictions", "_table")

    def __init__(self, name: str, max_size: int = DEFAULT_MAX_SIZE) -> None:
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        self.name = name
        self.max_size = max_size
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._table: dict = {}

    def __len__(self) -> int:
        return len(self._table)

    def lookup(self, key):
        """The cached value, or ``_MISS`` when absent."""
        value = self._table.get(key, _MISS)
        if value is _MISS:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def store(self, key, value) -> None:
        if key in self._table:
            return
        if len(self._table) >= self.max_size:
            self._table.pop(next(iter(self._table)))
            self.evictions += 1
        self._table[key] = value

    def clear(self) -> None:
        self._table.clear()

    def reset_counters(self) -> None:
        self.hits = self.misses = self.evictions = 0

    def stats(self) -> CacheStats:
        return CacheStats(
            name=self.name,
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._table),
            max_size=self.max_size,
        )


class _Miss:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<cache miss>"


_MISS = _Miss()

# Registry of every memoized similarity function's cache, by name.
_REGISTRY: dict[str, BoundedCache] = {}


def memoized_pair(
    name: str,
    *,
    max_size: int = DEFAULT_MAX_SIZE,
    symmetric: bool = True,
) -> Callable:
    """Decorate a pure two-argument similarity function with a cache.

    ``symmetric=True`` canonicalises the key order (``f(a, b) ==
    f(b, a)``), doubling the hit rate of pairwise loops; it requires
    the arguments to be orderable.  Extra positional and keyword
    arguments participate in the key, so ``f(a, b, scale=3)`` never
    collides with ``f(a, b)``.
    """
    cache = BoundedCache(name, max_size)
    _REGISTRY[name] = cache

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(left, right, *args, **kwargs):
            if symmetric and right < left:
                key_pair = (right, left)
            else:
                key_pair = (left, right)
            key = key_pair
            if args:
                key = key + args
            if kwargs:
                key = key + tuple(sorted(kwargs.items()))
            value = cache.lookup(key)
            if value is _MISS:
                value = fn(left, right, *args, **kwargs)
                cache.store(key, value)
            return value

        wrapper.cache = cache
        wrapper.__wrapped__ = fn
        return wrapper

    return decorate


def similarity_cache_stats() -> dict[str, CacheStats]:
    """Name → counter snapshot for every registered cache."""
    return {name: cache.stats() for name, cache in _REGISTRY.items()}


def clear_similarity_caches(*, reset_counters: bool = True) -> None:
    """Empty every cache (and by default zero its counters)."""
    for cache in _REGISTRY.values():
        cache.clear()
        if reset_counters:
            cache.reset_counters()


def publish_cache_metrics(registry) -> None:
    """Bridge every cache's counters into a metrics registry.

    Counter handles are incremented by the absolute cache totals, so
    this must run once per pipeline run against a fresh registry (the
    pipeline clears the caches at run start and publishes at run end).
    ``registry`` is a :class:`repro.obs.MetricsRegistry`; it is passed
    in rather than imported so textproc keeps no obs dependency.
    """
    for name in sorted(_REGISTRY):
        stats = _REGISTRY[name].stats()
        registry.counter("simcache_hits_total", cache=name).inc(stats.hits)
        registry.counter(
            "simcache_misses_total", cache=name
        ).inc(stats.misses)
        registry.counter(
            "simcache_evictions_total", cache=name
        ).inc(stats.evictions)
        registry.gauge("simcache_size", cache=name).set(stats.size)
