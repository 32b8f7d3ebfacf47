"""Run one workload in this process; run the suite in child processes.

One run is one process: ``peak_rss_mb`` is per workload, and the
process runs under ``PYTHONHASHSEED=0`` so fused bytes reproduce (the
launcher re-executes itself when the variable is not set).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e import OUT_DIR, PROCESS_STARTED
from benchmarks.e2e.hostspeed import HostSampler
from benchmarks.e2e.spec import (
    BLOCK_READS,
    BY_NAME,
    END_TO_END,
    F1_FLOORS,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
    percentile,
    summarize,
)

PACKAGE_DIR = Path(__file__).parent
LAUNCHER = PACKAGE_DIR / "run.py"

now = time.perf_counter

#: ``read_slow5_us`` averages this many of a block's slowest reads.
SLOWEST = BLOCK_READS // 20


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop: a drifted host shows here."""
    started = now()
    total = 0
    for index in range(1_000_000):
        total += index * index % 7
    return now() - started


def ensure_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0`` unless already there."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=PACKAGE_DIR, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "nogit"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "loadavg_1m": os.getloadavg()[0],
    }


# ----------------------------------------------------------------------
# One run.


def at_reference(rec, key: str) -> list[float]:
    """The timings of section ``key`` at the reference host speed.

    Each is multiplied by the mean host speed sampled while it ran
    (see ``hostspeed``); with the sampler off that speed is 1.
    """
    return [
        seconds * rec.sampler.speed_over(*span)
        for seconds, span in zip(rec.samples[key], rec.spans[key])
    ]


def _end_to_end(
    rec, state, setup, started_up_s: float, peak_rss_mb: float, strict: bool
) -> dict:
    """Every end-to-end and extra metric one untraced run supports."""
    median, mean = statistics.median, statistics.fmean
    # Every 100-read block is the same mix of cheap and expensive reads
    # (see ``read_plan``): each read metric is taken inside a block,
    # then the median over the blocks of a group, then the mean over
    # the groups.
    reads = rec.samples["read_s"]
    groups: dict = {}
    for number, (group, span) in enumerate(
        zip(rec.block_groups, rec.spans["read_s"])
    ):
        speed = rec.sampler.speed_over(*span)
        groups.setdefault(group, []).append([
            seconds * speed
            for seconds in reads[number * BLOCK_READS:(number + 1) * BLOCK_READS]
        ])

    def over_blocks(inside_block) -> float:
        return mean(
            median(inside_block(block) for block in blocks)
            for blocks in groups.values()
        )

    visible = at_reference(rec, "delta_visible_s")
    prime = median(at_reference(rec, "prime_s"))
    build = (
        median(at_reference(rec, "build_wall_s"))
        if "build_wall_s" in rec.samples else 0
    )
    values = {
        "setup_s": started_up_s + median(at_reference(setup, "generate_s")),
        "kb_ready_s": build + prime,
        "ingest_claims_per_s": rec.values["claims_committed"]
        / sum(at_reference(rec, "ingest_s")),
        "delta_visible_p50_ms": median(visible) * 1e3,
        "read_qps": BLOCK_READS / over_blocks(sum),
        "read_p50_us": over_blocks(median) * 1e6,
        "read_slow5_us": over_blocks(
            lambda block: sum(sorted(block)[-SLOWEST:]) / SLOWEST
        ) * 1e6,
        "peak_rss_mb": peak_rss_mb,
        "fused_f1": state.fused_f1,
        "failed_ops_share": rec.failed / rec.attempted,
    }
    if build:
        values["build_wall_s"] = build
        values["prime_s"] = prime
    if "reopen_s" in rec.samples:
        values["delta_visible_p90_ms"] = percentile(
            visible, 0.90, strict=strict
        ) * 1e3
        values["reopen_s"] = median(at_reference(rec, "reopen_s"))
        values["stored_bytes_per_claim"] = (
            state.stored_bytes / state.live_claims
        )
    return values


def run_once(
    name: str, seed: int, seconds: float, *, trace: bool, smoke: bool = False
) -> dict:
    """Generate, execute and verify one workload; returns the full result."""
    sampler = HostSampler()
    # The traced pass reports no time of its own: sampler off.
    if not trace:
        sampler.start()
    try:
        return _run_once(sampler, name, seed, seconds, trace, smoke)
    finally:
        sampler.stop()


def _run_once(
    sampler: HostSampler, name: str, seed: int, seconds: float,
    trace: bool, smoke: bool,
) -> dict:
    entered = now()
    # Imported here: everything before this line is cheap, everything
    # after it belongs to ``setup_s``.
    from repro.obs import SpanTracer
    from repro.obs.schema import validate_trace

    from benchmarks.e2e import trace as trace_mod
    from benchmarks.e2e.workloads import (
        Recorder,
        State,
        WORKLOAD_CLASSES,
        sha256_hex,
    )

    loadavg_before = os.getloadavg()[0]
    calib_before = calibrate()
    workload = WORKLOAD_CLASSES[name]()
    sizes = workload.sizes(seconds, trace=trace, smoke=smoke)
    # Process start → first timed section, without the calibration
    # loop: start-up and imports once, plus the median input generation.
    started_up_s = (
        now() - PROCESS_STARTED - calib_before - sampler.busy
    ) * sampler.speed_over(entered, now())
    setup = Recorder(sampler=sampler)
    for _ in range(workload.SETUP_REPEATS):
        with setup.timed("generate_s"):
            inputs = workload.generate(seed, sizes)

    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "sizes": sizes,
    }
    state = State()
    rec = Recorder(sampler=sampler)
    try:
        if trace:
            # The same reduced section twice: plain for the overhead
            # ratio, then wrapped for the spans.
            plain_state = State()
            try:
                started = now()
                workload.execute(inputs, sizes, Recorder(), plain_state)
                untraced_seconds = now() - started
            finally:
                plain_state.release()
            tracer = SpanTracer()
            counts: dict = {}
            rec = Recorder(tracer)
            with trace_mod.tracing(tracer, counts):
                started = now()
                workload.execute(inputs, sizes, rec, state)
                section_seconds = now() - started
        else:
            started = now()
            workload.execute(inputs, sizes, rec, state)
            section_seconds = now() - started
        sampler.stop()
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        workload.verify(inputs, state, rec)
        if not smoke:  # the floors are calibrated for the real sizes
            rec.check(
                "fused_f1_above_floor", state.fused_f1 >= F1_FLOORS[name]
            )
    finally:
        state.release()
    calib_after = calibrate()

    if trace:
        values = trace_mod.layer_metrics(
            trace_mod.summarize(tracer),
            counts,
            state.snapshot,
            section_seconds=section_seconds,
            untraced_seconds=untraced_seconds,
            calib_seconds=statistics.median([calib_before, calib_after]),
            stored_bytes=state.stored_bytes,
        )
        trace_json = tracer.to_json_dict()
        problems = validate_trace(trace_json)
        rec.check("trace_validates", not problems)
        rec.check(
            "trace_covers_section",
            values["trace.unattributed_share"] <= 0.10,
        )
        result["trace_json"] = trace_json
    else:
        values = _end_to_end(
            rec, state, setup, started_up_s, peak_rss_mb, not smoke
        )

    # The driver's list first; what only this package reports after it.
    contract = [metric.name for metric in (PER_LAYER if trace else END_TO_END)]
    entries = {
        name_: {"value": values[name_], "unit": BY_NAME[name_].unit}
        for name_ in contract + [n for n in values if n not in contract]
    }
    result.update(
        correct=all(rec.checks.values()) and rec.failed == 0,
        attempted=rec.attempted,
        failed=rec.failed,
        metrics={name_: entries[name_] for name_ in contract},
        extras={
            name_: entry for name_, entry in entries.items()
            if name_ not in contract
        },
        samples={
            key: {k: v for k, v in summarize(values_).items() if k != "values"}
            for key, values_ in rec.samples.items()
        },
        section_seconds=section_seconds,
        checks=rec.checks,
        input_digest=workload.input_digest(inputs),
        output_digest=sha256_hex(state.output_bytes),
        host={
            "calib_before_s": calib_before,
            "calib_after_s": calib_after,
            # Median sampled host speed, as a share of the reference
            # speed the timings are reported at (1 in a traced run).
            "speed": sampler.median_speed(),
            "loadavg_before": loadavg_before,
            "loadavg_after": os.getloadavg()[0],
        },
    )
    return result


def contract_line(result: dict) -> str:
    """The one JSON object the driver reads off the last stdout line."""
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    )


def print_run(result: dict) -> None:
    """Every metric of one run by name, unit, direction and bound."""
    mode = "traced" if result["trace"] else "untraced"
    print(
        f"# {result['workload']} seed={result['seed']} {mode} "
        f"section={result['section_seconds']:.2f}s "
        f"ops={result['attempted']} failed={result['failed']}"
    )
    for name, entry in {**result["metrics"], **result["extras"]}.items():
        metric = BY_NAME[name]
        arrow = "↓" if metric.better == "lower" else "↑"
        bound = "" if metric.bound is None else f"  bound {metric.bound:.0%}"
        print(
            f"  {name:<40} {entry['value']:>14.6g} {entry['unit']:<6}"
            f" {arrow}{bound}"
        )
    for check, ok in result["checks"].items():
        print(f"  check {check:<34} {'ok' if ok else 'FAILED'}")
    print(f"  output_digest {result['output_digest']}")


# ----------------------------------------------------------------------
# The suite: every workload in child processes, results on disk.


def _child(name: str, seed: int, seconds: float, trace: bool,
           smoke: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    full_out = OUT_DIR / f"tmp-{os.getpid()}-{name}.json"
    command = [
        sys.executable, str(LAUNCHER),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
        "--full-out", str(full_out),
    ]
    if smoke:
        command.append("--smoke")
    try:
        subprocess.run(
            command, check=True, stdout=subprocess.DEVNULL,
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
        return json.loads(full_out.read_text())
    finally:
        full_out.unlink(missing_ok=True)


def run_suite(
    seed: int,
    *,
    only: list[str] | None = None,
    runs: int = 1,
    seconds: float = RUN_SECONDS,
    smoke: bool = False,
) -> dict:
    """``runs`` untraced runs + one traced run per workload."""
    document = {
        "seed": seed,
        "seconds": seconds,
        "runs": runs,
        "env": environment(),
        "workloads": {},
    }
    for name in only or list(WORKLOADS):
        untraced = [
            _child(name, seed, seconds, False, smoke) for _ in range(runs)
        ]
        traced = _child(name, seed, seconds, True, smoke)
        first = untraced[0]
        per_run = [{**run["metrics"], **run["extras"]} for run in untraced]
        entry = {
            "end_to_end": {
                metric: {
                    "unit": first_entry["unit"],
                    **summarize([run[metric]["value"] for run in per_run]),
                }
                for metric, first_entry in per_run[0].items()
            },
            "per_layer": traced["metrics"],
            "ops_attempted": sum(run["attempted"] for run in untraced),
            "ops_failed": sum(run["failed"] for run in untraced),
            "correct": all(run["correct"] for run in untraced)
            and traced["correct"],
            "checks": {
                "untraced": first["checks"], "traced": traced["checks"],
            },
            "samples": first["samples"],
            "input_digest": first["input_digest"],
            "output_digests": sorted(
                {run["output_digest"] for run in untraced}
            ),
            "host": [run["host"] for run in untraced] + [traced["host"]],
            "trace": traced["trace_json"],
        }
        document["workloads"][name] = entry
        for run in untraced[:1] + [traced]:
            print_run(run)
    document["env"]["loadavg_1m_after"] = os.getloadavg()[0]
    return document


def write_result(document: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{document['env']['git_sha']}-{document['seed']}.json"
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return path
