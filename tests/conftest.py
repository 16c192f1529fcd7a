"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import poissonline


@pytest.fixture
def package_env():
    """Environment for a child interpreter that imports the package under test.

    pytest puts `src` on its own import path (see pyproject.toml); a child
    process gets it through PYTHONPATH instead.
    """
    src = str(Path(poissonline.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env
