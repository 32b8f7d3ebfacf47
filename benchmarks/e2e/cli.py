"""Command line of the end-to-end benchmark.

Three uses (README.md has the details):

* ``--workload W --seed N --seconds S --trace 0|1`` — one run in this
  process; the last stdout line is the JSON object the driver reads.
* ``--seed N [--only W ...] [--runs K]`` — the suite: every workload
  untraced (K times) and traced (once) in child processes, results
  written to ``out/<sha>-<seed>.json``.
* ``compare A.json B.json`` — verdict per (metric, workload).
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.e2e.spec import RUN_SECONDS, WORKLOADS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=RUN_SECONDS,
        help="scales the repeat counts (sizes are calibrated at "
             f"{RUN_SECONDS})",
    )
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run this one workload in-process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--only", nargs="+", choices=list(WORKLOADS),
                        help="suite: only these workloads")
    parser.add_argument("--runs", type=int, default=1,
                        help="suite: untraced runs per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the self-tests; writes nothing")
    parser.add_argument("--full-out", help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(argv[1:])
    args = _parser().parse_args(argv)

    from benchmarks.e2e import harness

    if args.workload is None:
        document = harness.run_suite(
            args.seed, only=args.only, runs=args.runs,
            seconds=args.seconds, smoke=args.smoke,
        )
        if not args.smoke:
            print(f"wrote {harness.write_result(document)}")
        return 0 if all(
            entry["correct"] for entry in document["workloads"].values()
        ) else 1

    harness.ensure_hash_seed()
    result = harness.run_once(
        args.workload, args.seed, args.seconds,
        trace=bool(args.trace), smoke=args.smoke,
    )
    harness.print_run(result)
    if args.full_out:
        with open(args.full_out, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
    print(harness.contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
