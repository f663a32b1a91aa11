"""Every example runs: they spell ``SystemConfig`` keywords too.

Nothing else executes ``examples/*.py``, so a renamed or deleted
config field (or public name) would otherwise ship green.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_to_completion(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip(), "an example prints its result"
