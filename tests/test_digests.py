"""Byte-identity pins: the outputs of fixed runs must not change by accident.

One benchmark job of each workload at its default sizes and seeds 1 and 2,
run in-process through ``bench/`` (imported the way ``bench/tests`` does,
without its timing hooks), plus ``quiesce redeploy`` on the demo fixtures
under both blockings, from the request and from the archive.  A change that
alters behaviour on purpose updates these values and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, run_cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from jobs import Marks, run_job  # noqa: E402
from workloads import DEFAULT_SIZES, generate  # noqa: E402

# (workload, seed) -> sha256 of (events.jsonl, metrics.json)
WORKLOAD_DIGESTS = {
    ("fanout-walk", 1): (
        "d809f180963f17dc7110c16c77cf6cbe5df45f35a5b9aeeb29e53144f2c461d3",
        "f5cabfa04284d8fedb9325ef70173390d7b11e00847825c08dca02c650767abe",
    ),
    ("fanout-walk", 2): (
        "322953d77c0e9a1dbf5fa65abf7802a614ede957359eb1c1ae161e919a8b90b2",
        "e4cc4fd1259057a8dd479b4097fc217fade722f1798d4ae2c50e773440eb764f",
    ),
    ("msg-burst", 1): (
        "255fce6802e8b246e1d35f2e23726159dd1b99d47f2cfb3b402605399dbcfba7",
        "88f62fdaac8c5d3ed71c35d07d4c0d4a71eb85ba6050a8a2247ab866e0a81dc1",
    ),
    ("msg-burst", 2): (
        "180bd7278354dc7e0d68fb12eda14218286f235e8b94c0db6bfa62cd08006f74",
        "bae7ff18203aec121e9add8a99dd378e915d511c61c75f67b70f07e1e625f471",
    ),
    ("rolling-redeploy", 1): (
        "addad045d8c07ded51e81c9c8a30da36a5c1048c225249d25a9df94e5a1f0d1b",
        "3a4d5984e79b32707729836b2ca0d1a347a1f4e46a2179f648700549bb9cf495",
    ),
    ("rolling-redeploy", 2): (
        "9a4bdc9403a8bbdb4b83a37d9d4a7609dc641198a9734f3436887fd5be4db5a4",
        "009b00d6da69f9643d7d53d3ec92c04474959e618a6ce5d1439086187a8c9f66",
    ),
}

COMPLETED = {
    "events.jsonl": "83ad3cd1a65cce33ee087709951bc3bea07ac0de82eeafe233462452fe523bf2",
    "metrics.json": "e164c30e4a48e8fe71937c55f46009f75165ac2219fc702c3e4f0d9643b056bc",
    "report.json": "3b257a345412a40d43649a8537a01fc04de5bdb9c8a5755bdb2d1a158007b378",
}
DRAIN_TIMEOUT = {
    "events.jsonl": "34c23f7f0b5e3d23a708345f790c38377040585d7a33cf17d4b6d822272bbd0c",
    "metrics.json": "6b4e024c4fda0c083e08a470acea192ffb318ebd38bf33790d85751811b7ac7f",
    "report.json": "dbc3d176a9a10aed791046a7f45d2d6cc5c5582b015ee01e25eff22f8ea67fdd",
}
# C v2 with duration 2 from demo_archive.json, swapped at t=0
ARCHIVE = {
    "events.jsonl": "aed6dcbac85621b11136d1b31bb2a12278eb934133897de2e6486b8d8e346f6b",
    "metrics.json": "125b678cdd92a80da0c4530f3c3788c3e7c4e5d2d43d634f6f25bc063e1fd96e",
    "report.json": "5d5a3ca1ea20929d06a6033dccdd031235dcd30c627f7a75efede03a1847a15f",
}
# (blocking, extra options) -> (exit code, sha256 of each output file); without
# --archive the request is demo_request.json
CLI_DIGESTS = {
    ("minimal", ()): (0, COMPLETED),
    ("whole-app", ()): (0, COMPLETED),
    ("minimal", ("--drain-timeout", "3")): (3, DRAIN_TIMEOUT),
    ("whole-app", ("--drain-timeout", "3")): (3, DRAIN_TIMEOUT),
    ("minimal", ("--archive", "demo_archive.json")): (0, ARCHIVE),
    ("whole-app", ("--archive", "demo_archive.json")): (0, ARCHIVE),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("workload, seed", sorted(WORKLOAD_DIGESTS))
def test_workload_outputs_are_pinned(workload, seed, tmp_path):
    result = run_job(generate(workload, seed, DEFAULT_SIZES[workload]), tmp_path, Marks())
    digests = (_sha(result.events_text.encode()), _sha(result.metrics_text.encode()))
    assert digests == WORKLOAD_DIGESTS[(workload, seed)]


def test_rolling_redeploy_pins_hold_when_the_job_runs_again(tmp_path):
    """The second job finds every archive component already parsed, as the benchmark's repeats do."""
    docs = generate("rolling-redeploy", 1, DEFAULT_SIZES["rolling-redeploy"])
    for run in ("first", "second"):
        result = run_job(docs, tmp_path / run, Marks())
        digests = (_sha(result.events_text.encode()), _sha(result.metrics_text.encode()))
        assert digests == WORKLOAD_DIGESTS[("rolling-redeploy", 1)], run


@pytest.mark.parametrize(
    "blocking, extra", sorted(CLI_DIGESTS), ids=[" ".join((b, *e)) for b, e in sorted(CLI_DIGESTS)]
)
def test_demo_redeploy_outputs_are_pinned(blocking, extra, tmp_path):
    request = () if "--archive" in extra else ("demo_request.json",)
    result = run_cli(
        "--out", str(tmp_path / "out"), "redeploy", "demo_chain.json", "demo_scenario.json",
        *request, "--blocking", blocking, *extra, cwd=FIXTURES,
    )
    files = {f.name: _sha(f.read_bytes()) for f in sorted((tmp_path / "out").iterdir())}
    assert (result.returncode, files) == CLI_DIGESTS[(blocking, extra)], result.stderr
