"""The end-to-end benchmark: raw sources → fused KB → served reads.

One seeded world per workload goes through the whole stack; every
speed or simplicity claim in this repo is measured with this package
(see README.md here).  Layers are measured from outside, by wrapping
calls into their public functions — nothing under ``src/`` knows the
benchmark exists.
"""

import pathlib
import time

#: Result files and scratch directories of runs (ignores its contents).
OUT_DIR = pathlib.Path(__file__).parent / "out"

#: Taken at first import so ``setup_s`` covers the heavy ``repro``
#: imports that follow (the launcher imports this package first).
PROCESS_STARTED = time.perf_counter()
