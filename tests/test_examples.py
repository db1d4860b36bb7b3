"""Smoke test of ``examples/``: every script runs to its end in-process.

The examples print their answers and check none of them, so this catches
an example that no longer runs against the library, not a worse answer.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert len(EXAMPLES) == 5


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
