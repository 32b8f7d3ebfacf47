"""In-process metrics: counters, gauges, histograms.

The observability substrate the production framework needs (the KBC
architecture survey calls metrics a required cross-cutting component;
Dong et al. debug extractor and source quality off exactly these
numbers).  Three metric kinds, deliberately minimal:

* **counter** — a monotonically increasing total (``_total`` suffix by
  convention);
* **gauge** — a point-in-time value (last set wins);
* **histogram** — observations bucketed against *fixed* upper bounds,
  plus total count and sum.

One registry serves a whole run: every instrumented layer writes into
the registry it was handed (MapReduce tasks report through
``JobStats``, which the job publishes here).  Snapshots
(:meth:`MetricsRegistry.snapshot`) are plain-data dataclasses —
picklable, JSON-ready copies.

Determinism contract (mirrors ``PipelineReport.to_json_dict()``):
count-type metrics — counters, gauges and histograms over discrete
quantities — are pure functions of config + seeds and byte-identical
across same-seed runs.  Timing-type metrics are wall-clock and are
**excluded** from :meth:`MetricsSnapshot.deterministic_subset` by a
naming convention: any metric whose base name ends in ``_seconds`` is
timing-type.  Chaos determinism tests diff the deterministic subset of
two same-seed runs.

Labels are rendered into the metric key (``name{k=v,...}`` with keys
sorted), so snapshots are flat string-keyed dicts — trivially JSON-
and pickle-serializable, deterministically ordered when sorted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_SECONDS_BUCKETS",
    "HistogramSnapshot",
    "LabeledRegistry",
    "MetricsRegistry",
    "MetricsSnapshot",
    "is_timing_metric",
    "parse_key",
]

# Fixed default bucket upper bounds.  Counts cover the sizes seen in
# this repo (claims per component, records per wave); seconds cover
# micro-benchmarks through full pipeline runs.  The last implicit
# bucket is +inf (the overflow slot).
DEFAULT_COUNT_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)
DEFAULT_SECONDS_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0,
)

_TIMING_SUFFIX = "_seconds"


def metric_key(name: str, labels: dict[str, object]) -> str:
    """Render ``name`` + labels into the flat snapshot key."""
    if not labels:
        return name
    rendered = ",".join(
        f"{key}={labels[key]}" for key in sorted(labels)
    )
    return f"{name}{{{rendered}}}"


def base_name(key: str) -> str:
    """The metric name of a rendered key, labels stripped."""
    brace = key.find("{")
    return key if brace < 0 else key[:brace]


def parse_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`metric_key`: ``name{k=v,...}`` → name + labels.

    Only safe for labels whose values contain no ``,`` or ``=`` —
    which this repo's label values (tenant names, stage names, reason
    slugs) satisfy by construction.
    """
    brace = key.find("{")
    if brace < 0:
        return key, {}
    body = key[brace + 1 : -1]
    if not body:
        return key[:brace], {}
    return key[:brace], dict(
        part.split("=", 1) for part in body.split(",")
    )


def is_timing_metric(key: str) -> bool:
    """True for wall-clock metrics, excluded from the deterministic set."""
    return base_name(key).endswith(_TIMING_SUFFIX)


@dataclass(slots=True)
class HistogramSnapshot:
    """Plain-data state of one histogram (picklable)."""

    bounds: tuple[float, ...]
    counts: list[int]
    count: int = 0
    sum: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


class _Counter:
    """Handle bound to one counter entry of a registry."""

    __slots__ = ("_store", "_key")

    def __init__(self, store: dict, key: str) -> None:
        self._store = store
        self._key = key

    @property
    def value(self) -> float:
        return self._store.get(self._key, 0)

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self._store[self._key] = self._store.get(self._key, 0) + amount


class _Gauge:
    """Handle bound to one gauge entry of a registry."""

    __slots__ = ("_store", "_key")

    def __init__(self, store: dict, key: str) -> None:
        self._store = store
        self._key = key

    @property
    def value(self) -> float:
        return self._store.get(self._key, 0)

    def set(self, value: float) -> None:
        self._store[self._key] = value


class _Histogram:
    """Handle bound to one histogram entry of a registry."""

    __slots__ = ("_snapshot",)

    def __init__(self, snapshot: HistogramSnapshot) -> None:
        self._snapshot = snapshot

    @property
    def count(self) -> int:
        return self._snapshot.count

    def observe(self, value: float) -> None:
        snapshot = self._snapshot
        for i, bound in enumerate(snapshot.bounds):
            if value <= bound:
                snapshot.counts[i] += 1
                break
        else:
            snapshot.counts[-1] += 1  # +inf overflow slot
        snapshot.count += 1
        snapshot.sum += value


@dataclass(slots=True)
class MetricsSnapshot:
    """Point-in-time plain-data copy of a registry (picklable)."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramSnapshot] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """JSON-ready dict, deterministically key-ordered."""
        return {
            "counters": {
                key: self.counters[key] for key in sorted(self.counters)
            },
            "gauges": {key: self.gauges[key] for key in sorted(self.gauges)},
            "histograms": {
                key: self.histograms[key].to_json_dict()
                for key in sorted(self.histograms)
            },
        }

    def label_subset(self, **labels) -> "MetricsSnapshot":
        """The entries carrying every given ``k=v`` label pair.

        ``snapshot.label_subset(tenant="t00")`` pulls one tenant's
        series out of a shared registry — the isolation tests compare
        a tenant's subset against its solo run's snapshot.  Values are
        compared after ``str()`` (labels render stringly).
        """
        wanted = {key: str(value) for key, value in labels.items()}

        def keep(key: str) -> bool:
            _, have = parse_key(key)
            return all(have.get(k) == v for k, v in wanted.items())

        return MetricsSnapshot(
            counters={
                key: value
                for key, value in self.counters.items()
                if keep(key)
            },
            gauges={
                key: value
                for key, value in self.gauges.items()
                if keep(key)
            },
            histograms={
                key: HistogramSnapshot(
                    bounds=histogram.bounds,
                    counts=list(histogram.counts),
                    count=histogram.count,
                    sum=histogram.sum,
                )
                for key, histogram in self.histograms.items()
                if keep(key)
            },
        )

    def deterministic_subset(self) -> dict:
        """The count-type metrics only (``*_seconds`` excluded).

        This is the part of a snapshot that must be byte-identical
        across same-seed runs; chaos determinism tests and the CI
        double-run diff compare exactly this dict.
        """
        payload = self.to_json_dict()
        return {
            kind: {
                key: value
                for key, value in metrics.items()
                if not is_timing_metric(key)
            }
            for kind, metrics in payload.items()
        }


class MetricsRegistry:
    """Live metric store: create-on-first-use counters/gauges/histograms.

    One registry per pipeline run; handles returned by
    :meth:`counter`/:meth:`gauge`/:meth:`histogram` write straight into
    the registry's dicts, so there is no flush step — ``snapshot()``
    is always current.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, HistogramSnapshot] = {}

    # -- handles -------------------------------------------------------
    def counter(self, name: str, **labels) -> _Counter:
        key = metric_key(name, labels)
        self._counters.setdefault(key, 0)
        return _Counter(self._counters, key)

    def gauge(self, name: str, **labels) -> _Gauge:
        key = metric_key(name, labels)
        self._gauges.setdefault(key, 0)
        return _Gauge(self._gauges, key)

    def histogram(
        self,
        name: str,
        *,
        buckets: tuple[float, ...] | None = None,
        **labels,
    ) -> _Histogram:
        """A histogram handle; ``buckets`` fixes the upper bounds.

        When omitted, ``*_seconds`` metrics get
        :data:`DEFAULT_SECONDS_BUCKETS` and everything else
        :data:`DEFAULT_COUNT_BUCKETS`.  Bounds are fixed at first use;
        later calls must agree (or omit ``buckets``).
        """
        key = metric_key(name, labels)
        existing = self._histograms.get(key)
        if existing is None:
            if buckets is None:
                buckets = (
                    DEFAULT_SECONDS_BUCKETS
                    if is_timing_metric(name)
                    else DEFAULT_COUNT_BUCKETS
                )
            bounds = tuple(sorted(float(bound) for bound in buckets))
            if not bounds:
                raise ValueError("a histogram needs at least one bound")
            existing = HistogramSnapshot(
                bounds=bounds, counts=[0] * (len(bounds) + 1)
            )
            self._histograms[key] = existing
        elif buckets is not None and tuple(
            sorted(float(bound) for bound in buckets)
        ) != existing.bounds:
            raise ValueError(
                f"histogram {key!r} already registered with bounds "
                f"{existing.bounds}"
            )
        return _Histogram(existing)

    def labeled(self, **labels) -> "LabeledRegistry":
        """A write view stamping ``labels`` onto every series.

        The multi-tenant manager hands each tenant's stack
        ``registry.labeled(tenant=name)`` so every ``stream_*`` /
        ``serving_*`` series the stack emits lands in the shared
        registry under its tenant label — the components never learn
        about tenancy.
        """
        return LabeledRegistry(self, labels)

    # -- snapshots -----------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """A picklable plain-data copy of the current state."""
        return MetricsSnapshot(
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            histograms={
                key: HistogramSnapshot(
                    bounds=histogram.bounds,
                    counts=list(histogram.counts),
                    count=histogram.count,
                    sum=histogram.sum,
                )
                for key, histogram in self._histograms.items()
            },
        )


class LabeledRegistry:
    """Registry view that merges fixed labels into every call.

    Quacks like :class:`MetricsRegistry` for the write side
    (``counter``/``gauge``/``histogram``) so components accepting a
    ``metrics=`` argument work unchanged behind it.  The fixed labels
    win over call-site labels of the same name — a component must not
    be able to escape (or spoof) the tenant its view was scoped to.
    Views nest: ``registry.labeled(tenant="a").labeled(shard="0")``
    stamps both.
    """

    __slots__ = ("_registry", "_labels")

    def __init__(
        self, registry: MetricsRegistry, labels: dict[str, object]
    ) -> None:
        self._registry = registry
        self._labels = dict(labels)

    @property
    def labels(self) -> dict[str, object]:
        return dict(self._labels)

    def counter(self, name: str, **labels) -> _Counter:
        return self._registry.counter(name, **{**labels, **self._labels})

    def gauge(self, name: str, **labels) -> _Gauge:
        return self._registry.gauge(name, **{**labels, **self._labels})

    def histogram(
        self,
        name: str,
        *,
        buckets: tuple[float, ...] | None = None,
        **labels,
    ) -> _Histogram:
        return self._registry.histogram(
            name, buckets=buckets, **{**labels, **self._labels}
        )

    def labeled(self, **labels) -> "LabeledRegistry":
        # Outer (existing) labels win, matching the per-call merge.
        return LabeledRegistry(
            self._registry, {**labels, **self._labels}
        )

    def snapshot(self) -> MetricsSnapshot:
        """The *underlying* registry's snapshot (views share state)."""
        return self._registry.snapshot()
