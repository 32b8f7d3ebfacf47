"""Self-tests of the end-to-end benchmark (not part of the tier-1 suite).

Run explicitly, from the repo root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q

They use ``--smoke`` sizes and finish in under a minute.
"""
