import os
import pathlib
import time

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def pytest_configure(config):
    config._suite_started_at = time.perf_counter()


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports betakotz from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
