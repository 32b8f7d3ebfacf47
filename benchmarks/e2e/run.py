"""Launcher for the ``BENCHMARK.json`` command.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S
--trace 0|1`` works from a bare checkout: it puts the checkout root
and ``src/`` on ``sys.path`` itself, so no ``PYTHONPATH`` is needed.
"""

import pathlib
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

if __name__ == "__main__":
    from benchmarks.e2e.cli import main

    sys.exit(main())
