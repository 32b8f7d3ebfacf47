"""Schema validation for the exported metrics / trace JSON.

The documented shapes:

Metrics (``--metrics-out``)::

    {
      "counters":   {"<name>[{k=v,...}]": number, ...},
      "gauges":     {"<name>[{k=v,...}]": number, ...},
      "histograms": {
        "<name>[{k=v,...}]": {
          "bounds": [number, ...],          # sorted upper bounds
          "counts": [int, ...],             # len(bounds) + 1 (+inf slot)
          "count":  int,                    # == sum(counts)
          "sum":    number
        }, ...
      }
    }

Trace (``--trace-out``)::

    {
      "seconds": number,
      "spans": [
        {"name": str, "start": number, "seconds": number,
         "detail": str, "status": "ok"|"failed",
         "children": [<span>, ...]},
        ...
      ]
    }

Validators return a list of human-readable problems (empty == valid)
so CI can print every violation at once.  Runnable as a module::

    python -m repro.obs.schema --metrics metrics.json --trace trace.json
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys
from collections.abc import Sequence

from repro.obs.metrics import metric_key, parse_key

__all__ = [
    "validate_metrics",
    "validate_tenant_metrics",
    "validate_trace",
    "main",
]

SPAN_STATUSES = ("ok", "failed")

# Metric families that are per-tenant by construction: in a
# multi-tenant snapshot each such series must say whose it is.
TENANT_SCOPED_PREFIXES = ("stream_", "serving_")


def _is_number(value: object) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _parse(key: object) -> tuple[str, dict[str, str]] | None:
    """``key`` as name + labels, or None when it is not a key
    :func:`~repro.obs.metrics.metric_key` renders (it does not parse,
    or does not render back to itself)."""
    if not isinstance(key, str):
        return None
    try:
        name, labels = parse_key(key)
    except ValueError:
        return None
    if not name or metric_key(name, labels) != key:
        return None
    return name, labels


def _check_scalar_map(payload: dict, kind: str, errors: list[str]) -> None:
    section = payload.get(kind)
    if not isinstance(section, dict):
        errors.append(f"{kind}: expected an object, got {type(section).__name__}")
        return
    for key, value in section.items():
        if _parse(key) is None:
            errors.append(f"{kind}: malformed metric key {key!r}")
        if not _is_number(value):
            errors.append(f"{kind}[{key!r}]: expected a number, got {value!r}")


def validate_metrics(payload: object) -> list[str]:
    """Problems with a ``--metrics-out`` document (empty == valid)."""
    errors: list[str] = []
    if not isinstance(payload, dict):
        return [f"metrics: expected an object, got {type(payload).__name__}"]
    for extra in set(payload) - {"counters", "gauges", "histograms"}:
        errors.append(f"metrics: unexpected top-level key {extra!r}")
    _check_scalar_map(payload, "counters", errors)
    _check_scalar_map(payload, "gauges", errors)
    histograms = payload.get("histograms")
    if not isinstance(histograms, dict):
        errors.append(
            f"histograms: expected an object, got {type(histograms).__name__}"
        )
        return errors
    for key, histogram in histograms.items():
        prefix = f"histograms[{key!r}]"
        if _parse(key) is None:
            errors.append(f"histograms: malformed metric key {key!r}")
        if not isinstance(histogram, dict):
            errors.append(f"{prefix}: expected an object")
            continue
        bounds = histogram.get("bounds")
        counts = histogram.get("counts")
        if not isinstance(bounds, list) or not all(
            _is_number(bound) for bound in bounds
        ):
            errors.append(f"{prefix}.bounds: expected a list of numbers")
            continue
        if sorted(bounds) != bounds:
            errors.append(f"{prefix}.bounds: must be sorted ascending")
        if not isinstance(counts, list) or not all(
            isinstance(count, int) and not isinstance(count, bool)
            and count >= 0
            for count in counts
        ):
            errors.append(
                f"{prefix}.counts: expected a list of non-negative ints"
            )
            continue
        if len(counts) != len(bounds) + 1:
            errors.append(
                f"{prefix}.counts: expected {len(bounds) + 1} slots "
                f"(bounds + overflow), got {len(counts)}"
            )
        count = histogram.get("count")
        if not isinstance(count, int) or count != sum(counts):
            errors.append(
                f"{prefix}.count: expected sum(counts)={sum(counts)}, "
                f"got {count!r}"
            )
        if not _is_number(histogram.get("sum")):
            errors.append(f"{prefix}.sum: expected a number")
    return errors


def validate_tenant_metrics(
    payload: object, tenants: Sequence[str]
) -> list[str]:
    """Per-tenant label coverage problems in a metrics document.

    For a snapshot produced by a multi-tenant run, every
    ``stream_*`` / ``serving_*`` series must carry a ``tenant`` label
    naming one of ``tenants`` — an unlabeled series means some
    tenant's traffic leaked into a shared series, an unknown name
    means a label was minted outside the manager.  Additionally every
    tenant must have a ``serving_version`` gauge: a tenant with no
    series at all never reported, which is its own kind of silent.

    Other structural problems (:func:`validate_metrics`) are not
    re-checked here, except a key that does not parse, whose tenant
    cannot be read; run both.
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        return [
            f"tenant-metrics: expected an object, "
            f"got {type(payload).__name__}"
        ]
    known = set(tenants)
    for kind in ("counters", "gauges", "histograms"):
        section = payload.get(kind)
        if not isinstance(section, dict):
            continue  # validate_metrics reports the structural problem
        for key in section:
            parsed = _parse(key)
            if parsed is None:
                errors.append(f"{kind}[{key!r}]: malformed metric key")
                continue
            name, labels = parsed
            if not name.startswith(TENANT_SCOPED_PREFIXES):
                continue
            tenant = labels.get("tenant")
            if tenant is None:
                errors.append(
                    f"{kind}[{key!r}]: tenant-scoped series without a "
                    "tenant label"
                )
            elif tenant not in known:
                errors.append(
                    f"{kind}[{key!r}]: unknown tenant {tenant!r}"
                )
    gauges = payload.get("gauges")
    if isinstance(gauges, dict):
        for tenant in sorted(known):
            probe = f"serving_version{{tenant={tenant}}}"
            if probe not in gauges:
                errors.append(
                    f"gauges: tenant {tenant!r} reported no "
                    "serving_version gauge"
                )
    return errors


def _validate_span(span: object, path: str, errors: list[str]) -> None:
    if not isinstance(span, dict):
        errors.append(f"{path}: expected an object")
        return
    name = span.get("name")
    if not isinstance(name, str) or not name:
        errors.append(f"{path}.name: expected a non-empty string")
    for key in ("start", "seconds"):
        value = span.get(key)
        if not _is_number(value) or value < 0:
            errors.append(f"{path}.{key}: expected a non-negative number")
    if not isinstance(span.get("detail"), str):
        errors.append(f"{path}.detail: expected a string")
    if span.get("status") not in SPAN_STATUSES:
        errors.append(
            f"{path}.status: expected one of {SPAN_STATUSES}, "
            f"got {span.get('status')!r}"
        )
    children = span.get("children")
    if not isinstance(children, list):
        errors.append(f"{path}.children: expected a list")
        return
    for i, child in enumerate(children):
        _validate_span(child, f"{path}.children[{i}]", errors)


def validate_trace(payload: object) -> list[str]:
    """Problems with a ``--trace-out`` document (empty == valid)."""
    errors: list[str] = []
    if not isinstance(payload, dict):
        return [f"trace: expected an object, got {type(payload).__name__}"]
    if not _is_number(payload.get("seconds")):
        errors.append("trace.seconds: expected a number")
    spans = payload.get("spans")
    if not isinstance(spans, list):
        errors.append("trace.spans: expected a list")
        return errors
    for i, span in enumerate(spans):
        _validate_span(span, f"trace.spans[{i}]", errors)
    return errors


def _validate_file(path: str, validator, label: str) -> list[str]:
    try:
        payload = json.loads(open(path, encoding="utf-8").read())
    except (OSError, ValueError) as exc:
        return [f"{label}: cannot read {path}: {exc}"]
    return [f"{label}: {problem}" for problem in validator(payload)]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Validate exported metrics/trace JSON documents."
    )
    parser.add_argument("--metrics", metavar="FILE", help="metrics JSON path")
    parser.add_argument("--trace", metavar="FILE", help="trace JSON path")
    parser.add_argument(
        "--tenants",
        metavar="NAMES",
        help=(
            "comma-separated tenant names; additionally checks the "
            "--metrics document's per-tenant label coverage"
        ),
    )
    args = parser.parse_args(argv)
    if not args.metrics and not args.trace:
        parser.error("nothing to validate: pass --metrics and/or --trace")
    if args.tenants and not args.metrics:
        parser.error("--tenants needs --metrics")
    problems: list[str] = []
    if args.metrics:
        problems += _validate_file(args.metrics, validate_metrics, "metrics")
        if args.tenants:
            names = [n for n in args.tenants.split(",") if n]
            problems += _validate_file(
                args.metrics,
                lambda payload: validate_tenant_metrics(payload, names),
                "tenant-metrics",
            )
    if args.trace:
        problems += _validate_file(args.trace, validate_trace, "trace")
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        checked = [p for p in (args.metrics, args.trace) if p]
        print(f"ok: {', '.join(checked)} valid")
    return 1 if problems else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
