"""``python -m benchmarks.e2e compare A.json B.json``.

One row per (end-to-end metric, workload) of two suite result files:
both medians, the relative change (positive = B is worse), the
regression bound, the run-to-run spread, and a verdict:

``ok``
    B is not worse than A by more than the bound;
``regressed``
    B is worse by more than the bound, and either the spread is within
    the bound or every run of B is worse than every run of A;
``unresolved``
    the spread (interquartile range ÷ median, the wider of the two
    sides) exceeds the bound, so the runs cannot tell — unless every
    run of B is better than every run of A, which is ``ok``.

Exit code 1 when any row regressed.  Differing output digests are
reported beside the table; they are expected to differ across seeds
and code changes that alter fused bytes, never between two runs of
the same code and seed.
"""

from __future__ import annotations

import json
import sys

from benchmarks.e2e.spec import END_TO_END, EXTRAS, Metric

__all__ = ["compare", "main", "verdict"]


def _spread(summary: dict) -> float:
    if not summary["median"]:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def verdict(metric: Metric, a: dict, b: dict) -> tuple[str, float, float]:
    """``(verdict, worsening, spread)`` for one metric's two summaries."""
    worse_by = metric.worsening(a["median"], b["median"])
    spread = max(_spread(a), _spread(b))
    lower = metric.better == "lower"
    separated_worse = (
        min(b["values"]) > max(a["values"]) if lower
        else max(b["values"]) < min(a["values"])
    )
    separated_better = (
        max(b["values"]) < min(a["values"]) if lower
        else min(b["values"]) > max(a["values"])
    )
    if worse_by > metric.bound and (spread <= metric.bound or separated_worse):
        return "regressed", worse_by, spread
    if spread > metric.bound and not separated_better:
        return "unresolved", worse_by, spread
    return "ok", worse_by, spread


def compare(a: dict, b: dict) -> list[dict]:
    """Rows for every (metric, workload) both documents report."""
    rows = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric in END_TO_END + EXTRAS:
            summary_a = entry_a["end_to_end"].get(metric.name)
            summary_b = entry_b["end_to_end"].get(metric.name)
            if summary_a is None or summary_b is None:
                continue
            status, worse_by, spread = verdict(metric, summary_a, summary_b)
            rows.append(
                {
                    "metric": metric.name,
                    "workload": workload,
                    "unit": metric.unit,
                    "a": summary_a["median"],
                    "b": summary_b["median"],
                    "n": (summary_a["n"], summary_b["n"]),
                    "worse_by": worse_by,
                    "bound": metric.bound,
                    "spread": spread,
                    "verdict": status,
                }
            )
        digests = (entry_a["output_digests"], entry_b["output_digests"])
        if digests[0] != digests[1]:
            rows.append(
                {"workload": workload, "digests_differ": digests}
            )
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'metric':<24}{'workload':<15}{'A':>12}{'B':>12} {'unit':<6}"
        f"{'worse by':>9}{'bound':>7}{'spread':>8}  n    verdict"
    ]
    for row in rows:
        if "digests_differ" in row:
            lines.append(f"output_digest differs on {row['workload']}")
            continue
        lines.append(
            f"{row['metric']:<24}{row['workload']:<15}"
            f"{row['a']:>12.5g}{row['b']:>12.5g} {row['unit']:<6}"
            f"{row['worse_by']:>+9.1%}{row['bound']:>7.0%}"
            f"{row['spread']:>8.1%}  {row['n'][0]}/{row['n'][1]:<3}"
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.e2e compare A.json B.json",
              file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows = compare(*documents)
    print(render(rows))
    regressed = [row for row in rows if row.get("verdict") == "regressed"]
    return 1 if regressed else 0
