"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m unittest discover -s bench/tests

(`python3 -m pytest bench/tests` works too.)
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from checks import check_log  # noqa: E402
from jobs import Marks, run_job  # noqa: E402
from workloads import generate  # noqa: E402

TINY = {
    "fanout-walk": {"depth": 4, "sessions": 5, "calls": 6, "gap": 100, "swap_cost": 20},
    "msg-burst": {"bursts": 2, "burst_size": 40, "burst_gap": 100, "sessions": 4, "session_calls": 3},
    "rolling-redeploy": {"depth": 4, "sessions": 3, "calls": 5, "gap": 100, "redeploys": 6, "every": 40},
}


def bench(workload: str, seed: int, out: str, trace: int = 0) -> tuple[int, list[str]]:
    """Run the benchmark in-process; (exit code, stdout lines)."""
    stdout = io.StringIO()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
            "--sizes", json.dumps(TINY[workload]), "--out", out]
    with contextlib.redirect_stdout(stdout):
        code = run.main(argv)
    return code, stdout.getvalue().splitlines()


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self) -> None:
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def test_every_workload_passes_every_check(self) -> None:
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench(workload, 1, self.tmp.name)
                result = json.loads(lines[-1])
                self.assertEqual(code, 0, "\n".join(lines))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertIn("checks: all passed", lines)

    def test_metrics_match_benchmark_json(self) -> None:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in self.declared[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    _, lines = bench(workload, 2, self.tmp.name, trace)
                    metrics = json.loads(lines[-1])["metrics"]
                    self.assertEqual({n: m["unit"] for n, m in metrics.items()}, declared)

    def test_same_seed_same_digests(self) -> None:
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = [line for line in bench(workload, 3, self.tmp.name)[1] if line.startswith("digest")]
                again = [line for line in bench(workload, 3, self.tmp.name)[1] if line.startswith("digest")]
                self.assertEqual(len(first), 2)
                self.assertEqual(first, again)

    def test_checker_rejects_doctored_logs(self) -> None:
        docs = generate("msg-burst", 4, TINY["msg-burst"])
        marks = Marks()
        marks.install()
        try:
            result = run_job(docs, Path(self.tmp.name), marks)
        finally:
            marks.uninstall()
        events = result.engine.log.events
        depths = dict(result.engine.snapshot().queue_depths)
        self.assertEqual(check_log(events, depths), [])

        def without_first(kind):
            i = next(i for i, e in enumerate(events) if e.kind == kind)
            return events[:i] + events[i + 1:]

        self.assertTrue(check_log(without_first("MessageDelivered"), depths))
        self.assertTrue(check_log(without_first("BarrierReleased"), depths))
        held = next(e.payload["id"] for e in events if e.kind == "InvocationHeld")
        unstarted = [e for e in events if not (e.kind == "InvocationStart" and e.payload["id"] == held)]
        self.assertTrue(check_log(unstarted, depths))
        swap = next(i for i, e in enumerate(events) if e.kind == "SwapApplied")
        component = events[swap].payload["component"]
        start = next(e for e in events if e.kind == "InvocationStart" and e.payload["component"] == component)
        self.assertTrue(check_log(events[:swap] + [start] + events[swap:], depths))
        abort = type(events[0])(events[-1].t, "TxAbort", {"tx": "tx:x", "root": "x"})
        self.assertTrue(check_log(events + [abort], depths))


if __name__ == "__main__":
    unittest.main()
