"""The walkthroughs in demos/ run to completion."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, child_env):
    done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=child_env)
    assert done.returncode == 0, done.stderr
