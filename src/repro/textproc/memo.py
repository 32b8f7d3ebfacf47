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

A table is a :func:`functools.lru_cache`: bounded, counted
(``cache_info()``) and transparent — a memoized function returns what
the undecorated ``fn.__wrapped__`` returns (tested), cold or warm.
:func:`publish_cache_metrics` exports the counters as ``simcache_*``
series, which is how a table that does not hit gets noticed.  Eviction
order (LRU) is unobservable on every workload here: the two tables
hold 58 and 31 of 65 536 entries on a default pipeline run.

Tables are module-global.  The pipeline clears them at the top of
every ``run()``, so a run never depends on the runs before it.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

# The ``lru_cache`` function behind every memoized similarity, by name.
_REGISTRY: dict[str, Callable] = {}


def memoized_pair(
    name: str,
    *,
    max_size: int = 65_536,
    symmetric: bool = True,
) -> Callable:
    """Decorate a pure two-argument similarity function with a cache.

    ``symmetric=True`` canonicalises the argument order (``f(a, b) ==
    f(b, a)``), doubling the hit rate of pairwise loops; it requires
    the arguments to be orderable.  Extra positional and keyword
    arguments participate in the key, so ``f(a, b, scale=3)`` never
    collides with ``f(a, b)``.
    """

    def decorate(fn: Callable) -> Callable:
        cached = functools.lru_cache(maxsize=max_size)(fn)
        _REGISTRY[name] = cached
        if not symmetric:
            return cached

        @functools.wraps(fn)
        def ordered(left, right, *args, **kwargs):
            if right < left:
                left, right = right, left
            return cached(left, right, *args, **kwargs)

        return ordered

    return decorate


def clear_similarity_caches() -> None:
    """Empty every cache and zero its counters."""
    for cached in _REGISTRY.values():
        cached.cache_clear()


def publish_cache_metrics(registry) -> None:
    """Bridge every cache's counters into a metrics registry.

    Counter handles are incremented by the absolute cache totals, so
    this must run once per pipeline run against a fresh registry (the
    pipeline clears the caches at run start and publishes at run end).
    Every miss stores one entry and entries leave only by eviction, so
    evictions are ``misses - currsize``.  ``registry`` is a
    :class:`repro.obs.MetricsRegistry`; it is passed in rather than
    imported so textproc keeps no obs dependency.
    """
    for name in sorted(_REGISTRY):
        info = _REGISTRY[name].cache_info()
        registry.counter("simcache_hits_total", cache=name).inc(info.hits)
        registry.counter("simcache_misses_total", cache=name).inc(info.misses)
        registry.counter("simcache_evictions_total", cache=name).inc(
            info.misses - info.currsize
        )
        registry.gauge("simcache_size", cache=name).set(info.currsize)
