"""Compiled fusion engine — timing and equivalence report.

Measures the three strata of the fusion layer and verifies, in the
same breath, that none of them changes a single decision:

1.  **Compiled kernels** — every fixed-point method on the default
    synthetic scale through the flat-array kernels of
    :mod:`repro.fusion.compiled`; reported both end-to-end (compile
    included) and warm (one :func:`compile_claims` reused across
    calls, the steady-state of repeated fusion over one claim set).
    Both must decide the same bytes on a canonical serialization.
    (Equality with the dict-loop reference is the test suite's job:
    ``tests/unit/test_fusion_compiled.py``.)
2.  **Connected-component sharding** — a multi-component claim graph
    fused globally vs :func:`repro.fusion.sharding.fuse_sharded`;
    merged output must be byte-identical at fixed iteration counts
    (``tolerance=0``), and the per-component stats are reported.
3.  **Convergence early-exit** — rounds and wall time with the delta
    tolerance on vs off; decided truths must agree.

Results land in ``benchmarks/out/fusion.txt`` (tables) and
``benchmarks/out/BENCH_fusion.json`` (machine-readable).  Run
standalone with ``python benchmarks/bench_fusion.py [--quick]``;
``--quick`` shrinks every workload for CI smoke runs.
"""

import argparse
import json
import os
import pathlib
import sys
import time

from repro.evalx.tables import render_table
from repro.fusion.accu import Accu, PopAccu
from repro.fusion.base import Claim, ClaimSet
from repro.fusion.compiled import (
    accu_fuse,
    compile_claims,
    gensums_fuse,
    investment_fuse,
    multitruth_fuse,
)
from repro.fusion.confidence_weighted import GeneralizedSums, Investment
from repro.fusion.multitruth import MultiTruth
from repro.fusion.sharding import fuse_sharded
from repro.synth.claims import ClaimWorldConfig, generate_claim_world

OUT_DIR = pathlib.Path(__file__).parent / "out"


# ----------------------------------------------------------------------
# Shared helpers.


def _canonical_fusion_bytes(result) -> bytes:
    """Canonical byte serialization of a fusion result's decisions."""
    return repr(
        (
            sorted(
                (item, sorted(values))
                for item, values in result.truths.items()
            ),
            sorted(result.belief.items()),
            sorted(result.source_quality.items()),
        )
    ).encode()


def _best_of(repeats: int, run):
    """Minimum wall time over ``repeats`` runs and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return best, result


# The benched methods: constructor plus the matching kernel called on
# a pre-built CompiledClaims (the warm path: no per-call compile).
def _kernel_accu(cc):
    return accu_fuse(cc, tolerance=0.0)


def _kernel_popaccu(cc):
    return accu_fuse(cc, tolerance=0.0, popularity=True, name="popaccu")


def _kernel_multitruth(cc):
    return multitruth_fuse(cc, tolerance=0.0)


def _kernel_gensums(cc):
    return gensums_fuse(cc, tolerance=0.0)


def _kernel_investment(cc):
    return investment_fuse(cc, tolerance=0.0)


METHODS = {
    "accu": (Accu, _kernel_accu),
    "popaccu": (PopAccu, _kernel_popaccu),
    "multitruth": (MultiTruth, _kernel_multitruth),
    "gensums": (GeneralizedSums, _kernel_gensums),
    "investment": (Investment, _kernel_investment),
}


# ----------------------------------------------------------------------
# Section 1: the compiled kernels, compile included and warm.


def run_compiled_section(quick: bool) -> dict:
    n_items = 150 if quick else 800
    repeats = 1 if quick else 3
    world = generate_claim_world(
        ClaimWorldConfig(seed=47, n_items=n_items, n_sources=20)
    )
    claims = world.claims
    compile_seconds, compiled = _best_of(
        repeats, lambda: compile_claims(claims)
    )
    records = []
    for name, (method_cls, kernel) in METHODS.items():
        # tolerance=0 pins the iteration count so both calls do the
        # same number of rounds.
        total_seconds, total = _best_of(
            repeats,
            lambda m=method_cls: m(tolerance=0.0).fuse(claims),
        )
        warm_seconds, warm = _best_of(
            repeats, lambda k=kernel: k(compiled)
        )
        records.append(
            {
                "method": name,
                "iterations": total.iterations,
                "compiled_seconds": round(total_seconds, 4),
                "warm_seconds": round(warm_seconds, 4),
                "identical": (
                    _canonical_fusion_bytes(warm)
                    == _canonical_fusion_bytes(total)
                ),
            }
        )
    return {
        "items": n_items,
        "sources": 20,
        "claims": len(claims),
        "compile_seconds": round(compile_seconds, 4),
        "repeats": repeats,
        "runs": records,
    }


def compiled_table(section: dict) -> str:
    rows = [
        [
            record["method"],
            record["iterations"],
            f"{record['compiled_seconds'] * 1000:.1f}ms",
            f"{record['warm_seconds'] * 1000:.1f}ms",
            "yes" if record["identical"] else "NO",
        ]
        for record in section["runs"]
    ]
    return render_table(
        ["method", "rounds", "compiled", "warm kernel", "identical"],
        rows,
        title=(
            f"Compiled fusion kernels ({section['claims']} claims, "
            f"compile {section['compile_seconds'] * 1000:.1f}ms)"
        ),
    )


# ----------------------------------------------------------------------
# Section 2: connected-component sharding.


def _multi_component_claims(quick: bool) -> ClaimSet:
    n_worlds = 3 if quick else 4
    n_items = 40 if quick else 200
    merged = ClaimSet()
    for index in range(n_worlds):
        world = generate_claim_world(
            ClaimWorldConfig(
                seed=100 + index, n_items=n_items, n_sources=8
            )
        )
        for c in world.claims:
            merged.add(
                Claim(
                    item=(f"w{index}:{c.item[0]}", c.item[1]),
                    value=c.value,
                    lexical=c.lexical,
                    source_id=f"w{index}:{c.source_id}",
                    extractor_id=c.extractor_id,
                    confidence=c.confidence,
                )
            )
    return merged


def run_sharding_section(quick: bool) -> dict:
    claims = _multi_component_claims(quick)
    records = []
    for name in ("accu", "multitruth"):
        method_cls, _kernel = METHODS[name]
        method = method_cls(tolerance=0.0)
        started = time.perf_counter()
        serial = method.fuse(claims)
        serial_seconds = time.perf_counter() - started
        started = time.perf_counter()
        sharded, stats = fuse_sharded(method, claims)
        seconds = time.perf_counter() - started
        records.append(
            {
                "method": name,
                "global_seconds": round(serial_seconds, 4),
                "sharded_seconds": round(seconds, 4),
                "speedup": round(serial_seconds / seconds, 3),
                "identical": (
                    _canonical_fusion_bytes(sharded)
                    == _canonical_fusion_bytes(serial)
                ),
                "components": stats.components,
                "component_claims": stats.component_claims,
                "largest_claims": stats.largest_claims,
            }
        )
    return {"claims": len(claims), "runs": records}


def sharding_table(section: dict) -> str:
    rows = [
        [
            record["method"],
            record["components"],
            f"{record['global_seconds'] * 1000:.1f}ms",
            f"{record['sharded_seconds'] * 1000:.1f}ms",
            f"{record['speedup']:.2f}x",
            "yes" if record["identical"] else "NO",
        ]
        for record in section["runs"]
    ]
    return render_table(
        ["method", "components", "global", "sharded", "speedup",
         "identical"],
        rows,
        title=(
            "Connected-component sharding "
            f"({section['claims']} claims, tolerance=0)"
        ),
    )


# ----------------------------------------------------------------------
# Section 3: convergence early-exit.

# Investment's trust contracts by only a few percent per round, so it
# demonstrates the early exit at a looser tolerance than the others.
EARLY_EXIT_TOLERANCES = {"investment": 1e-2}


def run_convergence_section(quick: bool) -> dict:
    n_items = 120 if quick else 400
    cap = 50
    world = generate_claim_world(
        ClaimWorldConfig(
            seed=29, n_items=n_items, n_sources=8,
            source_accuracies=[0.95, 0.92, 0.9, 0.88, 0.85, 0.85,
                               0.82, 0.8],
        )
    )
    claims = world.claims
    records = []
    for name, (method_cls, _kernel) in METHODS.items():
        kwargs = {}
        if name in EARLY_EXIT_TOLERANCES:
            kwargs["tolerance"] = EARLY_EXIT_TOLERANCES[name]
        started = time.perf_counter()
        early = method_cls(max_iterations=cap, **kwargs).fuse(claims)
        early_seconds = time.perf_counter() - started
        started = time.perf_counter()
        full = method_cls(max_iterations=cap, tolerance=0.0).fuse(claims)
        full_seconds = time.perf_counter() - started
        records.append(
            {
                "method": name,
                "converged_at": early.converged_at,
                "rounds_with_exit": early.iterations,
                "rounds_without": full.iterations,
                "seconds_with_exit": round(early_seconds, 4),
                "seconds_without": round(full_seconds, 4),
                "same_truths": early.truths == full.truths,
            }
        )
    return {
        "items": n_items,
        "claims": len(claims),
        "max_iterations": cap,
        "runs": records,
    }


def convergence_table(section: dict) -> str:
    rows = [
        [
            record["method"],
            record["converged_at"] or "-",
            f"{record['rounds_with_exit']}/{record['rounds_without']}",
            f"{record['seconds_with_exit'] * 1000:.1f}ms",
            f"{record['seconds_without'] * 1000:.1f}ms",
            "yes" if record["same_truths"] else "NO",
        ]
        for record in section["runs"]
    ]
    return render_table(
        ["method", "converged at", "rounds (exit/full)", "with exit",
         "without", "same truths"],
        rows,
        title=(
            "Convergence early-exit "
            f"({section['claims']} claims, cap {section['max_iterations']})"
        ),
    )


# ----------------------------------------------------------------------
# Harness.


def run_all(quick: bool) -> tuple[dict, str]:
    compiled = run_compiled_section(quick)
    sharding = run_sharding_section(quick)
    convergence = run_convergence_section(quick)
    document = {
        "meta": {
            "quick": quick,
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "compiled": compiled,
        "sharding": sharding,
        "convergence": convergence,
    }
    tables = "\n\n".join(
        [
            compiled_table(compiled),
            sharding_table(sharding),
            convergence_table(convergence),
        ]
    )
    return document, tables


def emit(document: dict, tables: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "fusion.txt").write_text(tables + "\n")
    (OUT_DIR / "BENCH_fusion.json").write_text(
        json.dumps(document, indent=2) + "\n"
    )


def _check(document: dict) -> list[str]:
    failures = []
    for record in document["compiled"]["runs"]:
        if not record["identical"]:
            failures.append(f"warm {record['method']} kernel diverged")
    for record in document["sharding"]["runs"]:
        if not record["identical"]:
            failures.append(f"sharded {record['method']} diverged")
    for record in document["convergence"]["runs"]:
        if not record["same_truths"]:
            failures.append(
                f"early-exit {record['method']} changed truths"
            )
    return failures


def test_fusion_report():
    document, tables = run_all(quick=False)
    print()
    print(tables)
    emit(document, tables)
    assert not _check(document)
    for record in document["convergence"]["runs"]:
        assert record["converged_at"] is not None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink every workload (CI smoke mode)",
    )
    options = parser.parse_args(argv)
    document, tables = run_all(quick=options.quick)
    print(tables)
    emit(document, tables)
    print(f"\nwrote {OUT_DIR / 'BENCH_fusion.json'}")
    failures = _check(document)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
