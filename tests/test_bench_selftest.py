"""The benchmark's own self-test, run as part of this suite.

An engine change that breaks the benchmark harness (its jobs, checks or
traced run) fails here instead of going unnoticed until a benchmark run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from conftest import SRC

BENCH_TESTS = Path(__file__).resolve().parent.parent / "bench" / "tests"


def test_benchmark_self_test_passes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", str(BENCH_TESTS)],
        capture_output=True,
        text=True,
        cwd=BENCH_TESTS.parent.parent,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
