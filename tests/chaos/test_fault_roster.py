"""Every scope on the fault roster is injected by some chaos test.

:data:`repro.faults.SCOPES` lists every fault point ``src/`` fires or
corrupts, and nothing can fire a scope off it.  This test closes the
loop from the other side: each roster entry must appear, spelt out as
a string literal, in another file under ``tests/chaos/``, so a new
fault point cannot land without a chaos test that injects it.
"""

import ast
import functools
from pathlib import Path

import pytest

from repro.faults import SCOPES

CHAOS_DIR = Path(__file__).parent


@functools.cache
def _string_literals() -> set[str]:
    literals: set[str] = set()
    for path in CHAOS_DIR.glob("*.py"):
        if path.name == Path(__file__).name:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
    return literals


@pytest.mark.parametrize("scope", sorted(SCOPES))
def test_every_roster_scope_is_injected_by_a_chaos_test(scope):
    assert scope in _string_literals(), (
        f"no test under tests/chaos/ injects fault scope {scope!r}"
    )
