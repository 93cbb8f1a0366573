"""Byte-identity pins: the outputs of fixed runs must not change by accident.

One benchmark job of each workload at its default sizes and seeds 1 and 2,
run in-process through ``bench/`` (imported the way ``bench/tests`` does,
without its timing hooks), plus ``quiesce redeploy`` on the demo fixtures
under both blockings, from the request and from the archive, and
``quiesce analyze-deps`` (the full runtime graph, which plans no longer
build) on every fixture application with its snapshots.  A change that
alters behaviour on purpose updates these values and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from quiesce.cli import cli

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


SNAPSHOT_APPS = {
    "chain_snapshot.json": "demo_chain.json",
    "past_snapshot.json": "demo_chain.json",
    "diamond_snapshot.json": "diamond_app.json",
    "late_snapshot.json": "late_app.json",
}
# (snapshot, target, --window) -> (exit code, sha256 of deps.json, of deps.dot);
# a target the application does not deploy fails with exit 1 and writes nothing
ANALYZE_DIGESTS = {
    ("chain_snapshot.json", "A", "0"): (0, "c3171ece8858df0ea0733216fce4ebd93685ce39e3b2307b4d7ac9c240c55667", "dcc48c5050f58969f4d224ee327b12e8129d7f1bb40c6bced6b3e43235d90c4f"),
    ("chain_snapshot.json", "A", "3"): (0, "fd179b1a0bf9658902efc431a573d776b50207c5d59516e51ef5e0d12c7a0f47", "dcc48c5050f58969f4d224ee327b12e8129d7f1bb40c6bced6b3e43235d90c4f"),
    ("chain_snapshot.json", "A", "auto"): (0, "b94cc03d4d55c689effd4142767e351f1779760305800a41c1f38022b04cf93a", "dcc48c5050f58969f4d224ee327b12e8129d7f1bb40c6bced6b3e43235d90c4f"),
    ("chain_snapshot.json", "B", "0"): (0, "60e1d592d3af7fd65782b3cf8cad91001ea743c2ad1bb4a6b93baaaf5546c792", "bf0683ff52b76b3eb8524bd4637fcf49ac6ab695130653544bb117b5f474086e"),
    ("chain_snapshot.json", "B", "3"): (0, "83a31043a5ab8a476adb5f791572e493aedeb4083bea52a8f72f914c0e18016f", "bf0683ff52b76b3eb8524bd4637fcf49ac6ab695130653544bb117b5f474086e"),
    ("chain_snapshot.json", "B", "auto"): (0, "386974fc2b43118d3ac5f259c71576b8c0c41112dbbee7cb044b7974e82424aa", "bf0683ff52b76b3eb8524bd4637fcf49ac6ab695130653544bb117b5f474086e"),
    ("chain_snapshot.json", "C", "0"): (0, "45679be0d973291dfa3fe85e20768d824cbbbd1257d6064a541c332543f1d09f", "f4b9ea4e251a42b5ced8b841af7d8ff08338f860239ac05de484c1849b377979"),
    ("chain_snapshot.json", "C", "3"): (0, "4d24fb124ec12d60576fb4da7ce4c4c59f12db69de1900a175f79d0c630619e9", "f4b9ea4e251a42b5ced8b841af7d8ff08338f860239ac05de484c1849b377979"),
    ("chain_snapshot.json", "C", "auto"): (0, "4f7963d336abe12e2ec0328206a0ea108e7d1a1aaad9a763859003bf2fbc0b28", "f4b9ea4e251a42b5ced8b841af7d8ff08338f860239ac05de484c1849b377979"),
    ("chain_snapshot.json", "D", "0"): (1, None, None),
    ("chain_snapshot.json", "D", "3"): (1, None, None),
    ("chain_snapshot.json", "D", "auto"): (1, None, None),
    ("past_snapshot.json", "A", "0"): (0, "e420399a732b63bf084180413af9dd5cef888a66ea85d42564f6e346769bf437", "47330ae7f10086ebe1c2486c2916fa94761472a1efc29b47cbff8609c1170c05"),
    ("past_snapshot.json", "A", "3"): (0, "2f84c9286d57fb35cc38e4acd941b7124d882b91db79bc073b8cfd75a6f59518", "47330ae7f10086ebe1c2486c2916fa94761472a1efc29b47cbff8609c1170c05"),
    ("past_snapshot.json", "A", "auto"): (0, "8fa1987a1eac248ffec19ab12aceae447f0a4d59c8f9a5c8fb329aa0b9d71a22", "47330ae7f10086ebe1c2486c2916fa94761472a1efc29b47cbff8609c1170c05"),
    ("past_snapshot.json", "B", "0"): (0, "19c29734ab68dbe32f9466d54eb91b9d7a12846f04e548d203eab2745e482027", "ca12cd2723c2d6190b9e9d6db3a47a62791a534550a8d23f346c799890ca5853"),
    ("past_snapshot.json", "B", "3"): (0, "c5311b2fc572350ca3ad9a2fb73aaa380ea68b1e3c38d2358a09aa2bbc1a85ad", "ca12cd2723c2d6190b9e9d6db3a47a62791a534550a8d23f346c799890ca5853"),
    ("past_snapshot.json", "B", "auto"): (0, "29b66eebad7fb4c739598e2dc4563de5c18512cb794a43a7f60ece7b0ef5c3fd", "ca12cd2723c2d6190b9e9d6db3a47a62791a534550a8d23f346c799890ca5853"),
    ("past_snapshot.json", "C", "0"): (0, "8c1a34b21ae88b399069e57c07edc095a3a61aeae18aea6784ce43b5d51fd95f", "24549c89784a3a5aee72642d7f415df138cc265daab969c7ee3b05f87318a3b3"),
    ("past_snapshot.json", "C", "3"): (0, "65d8263fb831e791d8bc82074dccba686fa866da48ab7fca77b20bb630587a55", "24549c89784a3a5aee72642d7f415df138cc265daab969c7ee3b05f87318a3b3"),
    ("past_snapshot.json", "C", "auto"): (0, "e4d97863b9162d95054b3320d4947e81601ac17766dc9c434421346df2378257", "24549c89784a3a5aee72642d7f415df138cc265daab969c7ee3b05f87318a3b3"),
    ("past_snapshot.json", "D", "0"): (1, None, None),
    ("past_snapshot.json", "D", "3"): (1, None, None),
    ("past_snapshot.json", "D", "auto"): (1, None, None),
    ("diamond_snapshot.json", "A", "0"): (0, "ea47a86f56aad8388652b868eac610b4f872f1d259dae7429e0965586c6e4e40", "cef92eb2e2d74058afc9f066bc9f80d84935a4acae5c56e821aa2788bfe20f11"),
    ("diamond_snapshot.json", "A", "3"): (0, "fa715c366c28a3fd72caebb98f44286ea51fd64aa2f90f86c243a63879e9326e", "e566454a7c7e133350b09763acfcff91e6a8fb84fed31bca27a020c9502d0adc"),
    ("diamond_snapshot.json", "A", "auto"): (0, "19eb1b830ee9c769d253dbd35d2c810b1b48b2de0f2524e60d5d86b96945158e", "e566454a7c7e133350b09763acfcff91e6a8fb84fed31bca27a020c9502d0adc"),
    ("diamond_snapshot.json", "B", "0"): (0, "5cb634b00d204306f3c9b0c7fce9a1e544ead899d6e12470fd58f24e2433f1ae", "803b6e7934ccf2c07f75e80f7e65c2252c4ce5709f5eb70c599a693b47c61828"),
    ("diamond_snapshot.json", "B", "3"): (0, "e448582c74fc9fb25d0bf37291451d78a25b2ce49d6ea1c607ca9267a935f27b", "5e5c4cfae5e6fcd10691499dc5d2dfe9e2c70199c8fde31eef8e7823a83df6ad"),
    ("diamond_snapshot.json", "B", "auto"): (0, "ac5131bd9790b8c4523b163aba326005066d8a93ea7c2c56fa570191b7e80d0e", "5e5c4cfae5e6fcd10691499dc5d2dfe9e2c70199c8fde31eef8e7823a83df6ad"),
    ("diamond_snapshot.json", "C", "0"): (0, "926e19ac431f73b0c7807e5db3dc062353e83d2ae731c80b4dba58f3ddf7b43d", "9e6b27e0530150134e4d3ff765c7aee2e671567f90dd56e26835c30c8460d582"),
    ("diamond_snapshot.json", "C", "3"): (0, "2e646e5751bffeef40a4126f18e79fe2525f8631d14f7caaf3bdfe41f14bcd8d", "38fda83b5c7db2a1dde92bdd04b4936714dc2d28b51310f270c232cebd9ab825"),
    ("diamond_snapshot.json", "C", "auto"): (0, "10bbf335df99339c9b1d903658db82f020108ef977370381ee6fcab760a83812", "38fda83b5c7db2a1dde92bdd04b4936714dc2d28b51310f270c232cebd9ab825"),
    ("diamond_snapshot.json", "D", "0"): (0, "e9724abda6f663ed21159cfd5b1f89d82e3d36b91bb652144deda89087b4e7ba", "98d47491d4f0ebb20a9bfef5efa8886fa98704f0bc29c66a2e26cb8eb41962e9"),
    ("diamond_snapshot.json", "D", "3"): (0, "dfcd409e6a9c327ab0188b40923a72a21cecfc063b4630db3750841a5e04753b", "09d2189161bc0d2cbf2b4678393a71836b5a5ade9b225e561862c68c98eab965"),
    ("diamond_snapshot.json", "D", "auto"): (0, "9720fb740f881c4da4f8e00ab0f3e122b3130ea249808a6edf8df9a942f79096", "09d2189161bc0d2cbf2b4678393a71836b5a5ade9b225e561862c68c98eab965"),
    ("late_snapshot.json", "A", "0"): (0, "21cc95ffcd8e7db44d90dfedcf89506fb245fc54b9cc6c305dcd0020894cd417", "8f39bb57a4e500fa24e00aa143477a1538f388806aa23277b77377e3d6439eb2"),
    ("late_snapshot.json", "A", "3"): (0, "cb43971f7f4e10163b2b53008a485ec67c00eede7bb0ae538f1485229f8af334", "8f39bb57a4e500fa24e00aa143477a1538f388806aa23277b77377e3d6439eb2"),
    ("late_snapshot.json", "A", "auto"): (0, "f66edfad2328e9af42ab710ed4242c95faa2693a2a09204e1e7e18653fd5900a", "8f39bb57a4e500fa24e00aa143477a1538f388806aa23277b77377e3d6439eb2"),
    ("late_snapshot.json", "B", "0"): (0, "0b7204f84678cec1fe726753d86c3fba9cd446b0ed9b358a8876f6c84f9bcec5", "1663e3b704dbab27150136563a2e774a4d97f263c08495ec9ca6bc78ff25b993"),
    ("late_snapshot.json", "B", "3"): (0, "34ec1f91752a7cfcd613187dddcda16ef74ac651713c4b3e10862d6d24cb34a0", "1663e3b704dbab27150136563a2e774a4d97f263c08495ec9ca6bc78ff25b993"),
    ("late_snapshot.json", "B", "auto"): (0, "9b6fe835e32bb98b8733a786f3fcc440b8bd8f39ea91d4e7cc08f97a35d1fc93", "1663e3b704dbab27150136563a2e774a4d97f263c08495ec9ca6bc78ff25b993"),
    ("late_snapshot.json", "C", "0"): (1, None, None),
    ("late_snapshot.json", "C", "3"): (1, None, None),
    ("late_snapshot.json", "C", "auto"): (1, None, None),
    ("late_snapshot.json", "D", "0"): (1, None, None),
    ("late_snapshot.json", "D", "3"): (1, None, None),
    ("late_snapshot.json", "D", "auto"): (1, None, None),
}


@pytest.mark.parametrize("snapshot, target, window", sorted(ANALYZE_DIGESTS))
def test_analyze_deps_outputs_are_pinned(snapshot, target, window, tmp_path):
    result = CliRunner().invoke(cli, [
        "--out", str(tmp_path), "analyze-deps", str(FIXTURES / SNAPSHOT_APPS[snapshot]),
        "--snapshot", str(FIXTURES / snapshot), "--targets", target, "--window", window, "--format", "dot",
    ])
    files = [tmp_path / "deps.json", tmp_path / "deps.dot"]
    digests = tuple(_sha(f.read_bytes()) if f.exists() else None for f in files)
    assert (result.exit_code, *digests) == ANALYZE_DIGESTS[(snapshot, target, window)], result.output
