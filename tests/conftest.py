from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # builders/oracles/gen importable

import quiesce
from quiesce.model import ApplicationConfiguration, load_application

FIXTURES = Path(__file__).parent.parent / "fixtures"
# the package this suite imported, as an absolute path: the CLI child runs in another cwd
SRC = Path(quiesce.__file__).resolve().parent.parent


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def run_cli(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run `python -m quiesce.cli` in ``cwd`` against the package under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "quiesce.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


@pytest.fixture
def chain_config() -> ApplicationConfiguration:
    return load_application(read_fixture("demo_chain.json"))


@pytest.fixture
def diamond_config() -> ApplicationConfiguration:
    return load_application(read_fixture("diamond_app.json"))


@pytest.fixture
def late_config() -> ApplicationConfiguration:
    return load_application(read_fixture("late_app.json"))
