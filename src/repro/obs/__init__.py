"""Observability substrate: metrics registry + span tracing.

* :mod:`repro.obs.metrics` — counters/gauges/histograms in one
  registry per run, with picklable plain-data snapshots (MapReduce
  tasks report through ``JobStats``, which the job publishes);
* :mod:`repro.obs.trace` — nested wall-clock spans exportable as a
  JSON trace tree;
* :mod:`repro.obs.schema` — validators for the exported JSON documents
  (``python -m repro.obs.schema --metrics m.json --trace t.json``).

The pipeline instruments every layer into one registry/tracer pair and
surfaces the result as ``PipelineReport.metrics`` / ``.trace`` and the
CLI's ``--metrics-out`` / ``--trace-out``.
"""

from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
    HistogramSnapshot,
    LabeledRegistry,
    MetricsRegistry,
    MetricsSnapshot,
    is_timing_metric,
)
from repro.obs.schema import (
    validate_metrics,
    validate_tenant_metrics,
    validate_trace,
)
from repro.obs.trace import Span, SpanTracer

__all__ = [
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_SECONDS_BUCKETS",
    "HistogramSnapshot",
    "LabeledRegistry",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Span",
    "SpanTracer",
    "is_timing_metric",
    "validate_metrics",
    "validate_tenant_metrics",
    "validate_trace",
]
