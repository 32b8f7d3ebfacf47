"""Every script under ``examples/`` runs to completion.

README sends a newcomer to these; each is executed here in a child
process, as a user would run it (``PYTHONPATH=src python
examples/<name>.py`` from a directory of its own), and has to exit 0.
The roster itself is pinned in ``tests/unit/test_config_surface.py``.
"""

import pytest

from tests.conftest import REPO_ROOT, run_python

EXAMPLES = sorted(path.stem for path in (REPO_ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_exits_zero(name, tmp_path):
    stdout = run_python(
        str(REPO_ROOT / "examples" / f"{name}.py"), cwd=tmp_path
    )
    assert stdout.strip(), "an example prints what it demonstrates"
    assert list(tmp_path.iterdir()) == [], "and leaves nothing behind"
