"""``python -m benchmarks.e2e`` — see README.md in this directory."""

import sys

from benchmarks.e2e.cli import main

if __name__ == "__main__":
    sys.exit(main())
