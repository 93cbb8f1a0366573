from __future__ import annotations

import json
from pathlib import Path

import pytest

from builders import appdoc, comp, iface, op, scenario_doc
from conftest import FIXTURES, run_cli


@pytest.fixture
def workdir(tmp_path: Path) -> Path:
    for name in (
        "demo_chain.json",
        "demo_scenario.json",
        "demo_request.json",
        "late_app.json",
        "late_snapshot.json",
        "chain_snapshot.json",
    ):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    return tmp_path


class TestSimulate:
    def test_clean_run_writes_log_and_metrics(self, workdir):
        result = run_cli(
            "--out", "out", "simulate", "demo_chain.json", "demo_scenario.json",
            "--until", "200", cwd=workdir,
        )
        assert result.returncode == 0, result.stderr
        events = (workdir / "out" / "events.jsonl").read_text()
        assert '"kind": "InvocationStart"' in events
        metrics = json.loads((workdir / "out" / "metrics.json").read_text())
        assert metrics["aborted_transactions"] == 0

    def test_runs_are_byte_identical(self, workdir):
        for out in ("one", "two"):
            result = run_cli(
                "--out", out, "simulate", "demo_chain.json", "demo_scenario.json",
                "--until", "200", cwd=workdir,
            )
            assert result.returncode == 0
        assert (workdir / "one" / "events.jsonl").read_bytes() == (
            workdir / "two" / "events.jsonl"
        ).read_bytes()
        assert (workdir / "one" / "metrics.json").read_bytes() == (
            workdir / "two" / "metrics.json"
        ).read_bytes()

    def test_unknown_component_reference_exits_one(self, workdir):
        bad = scenario_doc([{"id": "c", "access": "Remote",
                             "script": [{"at": 0, "call": {"component": "Z", "interface": "IZ", "operation": "w"}}]}])
        (workdir / "bad_scenario.json").write_text(bad)
        result = run_cli("simulate", "demo_chain.json", "bad_scenario.json", cwd=workdir)
        assert result.returncode == 1
        assert "bad_scenario.json" in result.stderr

    def test_malformed_app_exits_one_naming_file(self, workdir):
        (workdir / "broken.json").write_text("{nope")
        result = run_cli("simulate", "broken.json", "demo_scenario.json", cwd=workdir)
        assert result.returncode == 1
        assert "broken.json" in result.stderr

    def test_empty_scenario_yields_zero_metrics(self, workdir):
        (workdir / "empty.json").write_text(scenario_doc())
        result = run_cli("--out", "o", "simulate", "demo_chain.json", "empty.json", cwd=workdir)
        assert result.returncode == 0
        metrics = json.loads((workdir / "o" / "metrics.json").read_text())
        assert metrics["held_invocations"]["count"] == 0
        assert metrics["invalidated_sessions"] == 0
        assert metrics["total_time"] == 0

    def test_swap_that_breaks_a_caller_is_rejected_before_it_runs(self, workdir):
        # a caller whose automaton promises an operation the provider lacks:
        # the document is rejected at load, and a redeploy that would swap it in
        # is rejected before any barrier goes up, in both forms
        components = [
            comp("A", required=["ILog", "IB"],
                 operations=[op("go", duration=20, automaton={
                     "states": ["q0", "q1", "q2"], "initial": "q0", "finals": ["q2"],
                     "transitions": [
                         {"from": "q0", "to": "q1", "calls_interface": "ILog", "calls_operation": "note", "min_delay": 10},
                         {"from": "q1", "to": "q2", "calls_interface": "IB", "calls_operation": "w", "min_delay": 0},
                     ]})],
                 provided=[iface("IA", "go")]),
            comp("B", provided=[iface("IB", "w")], operations=[op("w", tx="Joins", duration=3)]),
        ]
        (workdir / "pv_app.json").write_text(
            appdoc(components, wiring=[("A", "ILog", None), ("A", "IB", "B")])
        )
        (workdir / "pv_scenario.json").write_text(
            scenario_doc([{"id": "c", "access": "Remote",
                           "script": [{"at": 0, "call": {"component": "A", "interface": "IA", "operation": "go"}},
                                      {"at": 40, "call": {"component": "A", "interface": "IA", "operation": "go"}}]}])
        )
        gutted = comp("B", version=2, provided=[iface("IB", "other")],
                      operations=[op("other", tx="Joins", duration=3)])
        (workdir / "pv_request.json").write_text(
            json.dumps({"id": "r", "requested_at": 2, "targets": [{"component": "B", "descriptor": gutted}]})
        )
        (workdir / "pv_archive.json").write_text(
            json.dumps({"module": "m", "version": 2, "components": [components[0], gutted]})
        )
        finding = {"kind": "signature-mismatch", "subject": "A", "detail": "calls IB.w which provider 'B' does not offer"}
        for out, source in (("req", ("pv_request.json",)), ("arc", ("--archive", "pv_archive.json"))):
            result = run_cli(
                "--out", out, "redeploy", "pv_app.json", "pv_scenario.json", *source,
                "--until", "100", cwd=workdir,
            )
            assert result.returncode == 3, result.stderr
            assert result.stderr == "Rejected: {kind}: {subject}: {detail}\n".format(**finding)
            report = json.loads((workdir / out / "report.json").read_text())
            assert (report["outcome"], report["findings"]) == ("Rejected", [finding])
            kinds = {json.loads(line)["kind"] for line in (workdir / out / "events.jsonl").read_text().splitlines()}
            assert "BarrierActivated" not in kinds and "SwapApplied" not in kinds


class TestRedeployCommand:
    def test_accepted_request_completes_with_zero_aborts(self, workdir):
        result = run_cli(
            "--out", "out", "redeploy", "demo_chain.json", "demo_scenario.json",
            "demo_request.json", "--until", "300", cwd=workdir,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads((workdir / "out" / "report.json").read_text())
        assert report["outcome"] == "Completed"
        metrics = json.loads((workdir / "out" / "metrics.json").read_text())
        assert metrics["aborted_transactions"] == 0
        assert metrics["invalidated_sessions"] == 0
        assert metrics["messages"]["lost"] == 0

    def test_minimal_blocking_waits_no_longer_than_whole_app(self, workdir):
        totals = {}
        for mode in ("minimal", "whole-app"):
            result = run_cli(
                "--out", mode, "redeploy", "demo_chain.json", "demo_scenario.json",
                "demo_request.json", "--blocking", mode, "--until", "300", cwd=workdir,
            )
            assert result.returncode == 0, result.stderr
            metrics = json.loads((workdir / mode / "metrics.json").read_text())
            held = metrics["held_invocations"]
            totals[mode] = held["count"] * held["mean_wait"]
        assert totals["minimal"] <= totals["whole-app"]

    def test_unsafe_structural_stateful_request_exits_three(self, workdir):
        app_doc = appdoc(
            [comp("S", kind="StatefulSession", state_fields=["a"], operations=[op("work", duration=2)])]
        )
        (workdir / "stateful_app.json").write_text(app_doc)
        (workdir / "none.json").write_text(scenario_doc())
        new = comp("S", version=2, kind="StatefulSession", state_fields=["a", "b"],
                   operations=[op("work", duration=2)])
        (workdir / "unsafe_request.json").write_text(
            json.dumps({"id": "r", "requested_at": 0, "targets": [{"component": "S", "descriptor": new}]})
        )
        result = run_cli(
            "redeploy", "stateful_app.json", "none.json", "unsafe_request.json", cwd=workdir
        )
        assert result.returncode == 3
        assert "Unsafe" in result.stderr or "rejected" in result.stderr

    @pytest.mark.parametrize("form", ["request", "archive"])
    def test_a_refused_plan_writes_nothing_in_either_form(self, workdir, form):
        (workdir / "stateful_app.json").write_text(
            appdoc([comp("S", kind="StatefulSession", state_fields=["a"], operations=[op("work", duration=2)])])
        )
        (workdir / "none.json").write_text(scenario_doc())
        new = comp("S", version=2, kind="StatefulSession", state_fields=["a", "b"],
                   operations=[op("work", duration=2)])
        (workdir / "request.json").write_text(
            json.dumps({"id": "r", "requested_at": 0, "targets": [{"component": "S", "descriptor": new}]})
        )
        (workdir / "archive.json").write_text(json.dumps({"module": "shop", "version": 2, "components": [new]}))
        source = {"request": ("request.json",), "archive": ("--archive", "archive.json")}[form]
        result = run_cli("--out", "o", "redeploy", "stateful_app.json", "none.json", *source, cwd=workdir)
        assert result.returncode == 3
        assert result.stderr == (
            '{"component": "S", "reasons": ["HasConversationalState"], "verdict": "Unsafe"}\n'
            "rejected: S: HasConversationalState\n"
        )
        assert list((workdir / "o").iterdir()) == []

    def test_strict_mode_rejects_structural_request(self, workdir):
        new = comp("C", version=2, provided=[iface("IC", "backWork", "extra")],
                   operations=[op("backWork", tx="Joins", duration=3), op("extra", duration=1)],
                   access={"IC": "Local"})
        (workdir / "structural_request.json").write_text(
            json.dumps({"id": "r", "requested_at": 8, "targets": [{"component": "C", "descriptor": new}]})
        )
        strict = run_cli(
            "redeploy", "demo_chain.json", "demo_scenario.json", "structural_request.json",
            "--mode", "strict", cwd=workdir,
        )
        assert strict.returncode == 3
        weakened = run_cli(
            "--out", "w", "redeploy", "demo_chain.json", "demo_scenario.json",
            "structural_request.json", "--mode", "weakened", "--until", "300", cwd=workdir,
        )
        assert weakened.returncode == 0, weakened.stderr

    @pytest.mark.parametrize("change,message", [
        ({"qos_changes": [{"component": "B", "pool_size": 0}]}, "qos change for 'B': pool_size must be >= 1"),
        ({"requested_at": "x"}, "request document: 'requested_at' must be an integer"),
        ({"qos_changes": [{"component": "B", "pool_size": "x"}]}, "qos document 'B': 'pool_size' must be an integer"),
        ({"targets": [{"component": "C"}, {"component": "C"}]}, "request targets name component 'C' twice"),
        (
            {"qos_changes": [{"component": "B", "pool_size": 2}, {"component": "B", "pool_size": 3}]},
            "request qos_changes name component 'B' twice",
        ),
    ])
    def test_bad_request_field_exits_one_before_the_run(self, workdir, change, message):
        request = json.loads((workdir / "demo_request.json").read_text())
        (workdir / "bad_request.json").write_text(json.dumps({**request, **change}))
        result = run_cli(
            "--out", "o", "redeploy", "demo_chain.json", "demo_scenario.json", "bad_request.json", cwd=workdir,
        )
        assert result.returncode == 1
        assert result.stderr == f"error: bad_request.json: {message}\n"
        assert not (workdir / "o" / "events.jsonl").exists()

    def test_a_request_instant_past_the_horizon_exits_one_and_writes_nothing(self, workdir):
        request = json.loads((workdir / "demo_request.json").read_text())
        (workdir / "late_request.json").write_text(json.dumps({**request, "requested_at": 2000}))
        result = run_cli(
            "--out", "o", "redeploy", "demo_chain.json", "demo_scenario.json", "late_request.json", cwd=workdir,
        )
        assert result.returncode == 1
        assert result.stderr == "error: request 'swap-C-v2' at 2000 is outside the run (0..1000)\n"
        assert list((workdir / "o").iterdir()) == []

    def test_drain_timeout_explains_itself_on_stderr(self, workdir):
        result = run_cli(
            "--out", "o", "redeploy", "demo_chain.json", "demo_scenario.json", "demo_request.json",
            "--drain-timeout", "3", cwd=workdir,
        )
        assert result.returncode == 3
        assert result.stderr == "DrainTimeout: drain timeout waiting for 'A'\n"


def renamed_c(workdir: Path, b_follows: bool) -> dict[str, tuple[str, ...]]:
    """Both redeploy sources for C v2 with ``backWork`` renamed ``otherOp`` (B v2 calling it too if ``b_follows``)."""
    components = json.loads((FIXTURES / "demo_chain.json").read_text())["components"]
    b, c = components[1], components[2]
    c["version"] = 2
    c["provided"][0]["operations"][0]["name"] = c["operations"][0]["name"] = "otherOp"
    changed = [c]
    if b_follows:
        b["version"] = 2
        b["operations"][0]["effect_automaton"]["transitions"][0]["calls_operation"] = "otherOp"
        changed.insert(0, b)
    (workdir / "renamed_archive.json").write_text(json.dumps({"module": "demo", "version": 2, "components": components}))
    (workdir / "renamed_request.json").write_text(json.dumps(
        {"id": "rename", "requested_at": 8, "targets": [{"component": d["name"], "descriptor": d} for d in changed]}
    ))
    return {"request": ("renamed_request.json",), "archive": ("--archive", "renamed_archive.json")}


class TestRenamedOperation:
    """A weakened-mode swap that renames the operation a wired client calls."""

    @pytest.mark.parametrize("blocking", ["minimal", "whole-app"])
    @pytest.mark.parametrize("form", ["request", "archive"])
    def test_rejected_before_any_barrier_goes_up(self, workdir, form, blocking):
        source = renamed_c(workdir, b_follows=False)[form]
        result = run_cli(
            "--out", "o", "redeploy", "demo_chain.json", "demo_scenario.json", *source,
            "--blocking", blocking, cwd=workdir,
        )
        assert result.returncode == 3, result.stderr
        detail = "calls IC.backWork which provider 'C' does not offer"
        assert result.stderr == f"Rejected: signature-mismatch: B: {detail}\n"
        report = json.loads((workdir / "o" / "report.json").read_text())
        assert report["outcome"] == "Rejected"
        assert report["findings"] == [{"kind": "signature-mismatch", "subject": "B", "detail": detail}]
        kinds = {json.loads(line)["kind"] for line in (workdir / "o" / "events.jsonl").read_text().splitlines()}
        assert "BarrierActivated" not in kinds and "SwapApplied" not in kinds

    @pytest.mark.parametrize("blocking", ["minimal", "whole-app"])
    @pytest.mark.parametrize("form", ["request", "archive"])
    def test_completes_when_the_caller_follows_the_rename(self, workdir, form, blocking):
        source = renamed_c(workdir, b_follows=True)[form]
        result = run_cli(
            "--out", "o", "redeploy", "demo_chain.json", "demo_scenario.json", *source,
            "--blocking", blocking, cwd=workdir,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads((workdir / "o" / "report.json").read_text())
        assert (report["outcome"], report["findings"]) == ("Completed", [])
        swapped = [json.loads(line)["payload"]["component"]
                   for line in (workdir / "o" / "events.jsonl").read_text().splitlines() if '"SwapApplied"' in line]
        assert sorted(swapped) == ["B", "C"]


class TestAnalyzeDeps:
    def test_window_zero_keeps_only_immediate_work(self, workdir):
        result = run_cli(
            "--out", "o", "analyze-deps", "late_app.json", "--snapshot", "late_snapshot.json",
            "--targets", "B", "--window", "0", cwd=workdir,
        )
        assert result.returncode == 0, result.stderr
        doc = json.loads((workdir / "o" / "deps.json").read_text())
        assert doc["affected"] == ["B"]

    def test_window_inf_equals_static_closure_for_initial_cursors(self, workdir):
        result = run_cli(
            "--out", "o", "analyze-deps", "demo_chain.json", "--snapshot", "chain_snapshot.json",
            "--targets", "C", "--window", "inf", cwd=workdir,
        )
        assert result.returncode == 0, result.stderr
        doc = json.loads((workdir / "o" / "deps.json").read_text())
        assert doc["affected"] == ["A", "B", "C"]

    def test_past_cursor_excluded_from_affected(self, workdir):
        (workdir / "past_snapshot.json").write_text((FIXTURES / "past_snapshot.json").read_text())
        result = run_cli(
            "--out", "o", "analyze-deps", "demo_chain.json", "--snapshot", "past_snapshot.json",
            "--targets", "C", "--window", "100", cwd=workdir,
        )
        assert result.returncode == 0, result.stderr
        doc = json.loads((workdir / "o" / "deps.json").read_text())
        assert doc["affected"] == ["B", "C"]

    def test_dot_output(self, workdir):
        result = run_cli(
            "--out", "o", "analyze-deps", "demo_chain.json", "--snapshot", "chain_snapshot.json",
            "--targets", "C", "--window", "50", "--format", "dot", cwd=workdir,
        )
        assert result.returncode == 0, result.stderr
        assert (workdir / "o" / "deps.dot").read_text().startswith("digraph")

    def test_bad_window_value_exits_one(self, workdir):
        result = run_cli(
            "analyze-deps", "demo_chain.json", "--snapshot", "chain_snapshot.json",
            "--window", "soon", cwd=workdir,
        )
        assert result.returncode == 1


def without(fixture: str, path: tuple, key: str) -> str:
    """The fixture's JSON with ``key`` dropped from the object at ``path``."""
    doc = json.loads((FIXTURES / fixture).read_text())
    holder = doc
    for step in path:
        holder = holder[step]
    del holder[key]
    return json.dumps(doc)


def with_value(fixture: str, path: tuple, key: str, value) -> str:
    """The fixture's JSON with ``key`` of the object at ``path`` set to ``value``."""
    doc = json.loads((FIXTURES / fixture).read_text())
    holder = doc
    for step in path:
        holder = holder[step]
    holder[key] = value
    return json.dumps(doc)


_INVALID_JSON = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"

# one malformed document of each kind: (file text, command with the file as bad.json, error text)
MALFORMED = {
    "application": (
        without("demo_chain.json", ("components", 0), "name"),
        ("simulate", "bad.json", "demo_scenario.json"),
        "component None missing keys: ['name']",
    ),
    "application-pool-size": (
        with_value("demo_chain.json", ("containers", 0), "pool_size", "x"),
        ("simulate", "bad.json", "demo_scenario.json"),
        "container 'A': 'pool_size' must be an integer",
    ),
    "application-duration": (
        with_value("demo_chain.json", ("components", 0, "operations", 0), "duration", "abc"),
        ("analyze-deps", "bad.json", "--snapshot", "chain_snapshot.json"),
        "operation 'frontWork': 'duration' must be an integer",
    ),
    "application-required": (
        with_value("demo_chain.json", ("components", 0), "required", 5),
        ("analyze-deps", "bad.json", "--snapshot", "chain_snapshot.json"),
        "component 'A': 'required' must be a list",
    ),
    "application-access": (
        with_value("demo_chain.json", ("components", 0), "access", ["x"]),
        ("analyze-deps", "bad.json", "--snapshot", "chain_snapshot.json"),
        "component 'A': 'access' must be an object",
    ),
    "application-composite-cycle": (
        with_value("demo_chain.json", (), "composites", [{"name": "a", "children": ["b", "C"]},
                                                          {"name": "b", "children": ["a"]}]),
        ("simulate", "bad.json", "demo_scenario.json"),
        "composite cycle through 'a'",
    ),
    "scenario": (
        without("demo_scenario.json", ("clients", 0, "script", 1, "call"), "interface"),
        ("simulate", "demo_chain.json", "bad.json"),
        "call entry missing keys: ['interface']",
    ),
    "request": (
        without("demo_request.json", ("targets", 0), "component"),
        ("redeploy", "demo_chain.json", "demo_scenario.json", "bad.json"),
        "target document missing keys: ['component']",
    ),
    "request-descriptor-file": (
        json.dumps({"targets": [{"component": "C", "descriptor_file": "broken.json"}]}),
        ("redeploy", "demo_chain.json", "demo_scenario.json", "bad.json"),
        f"invalid descriptor JSON: {_INVALID_JSON}",
    ),
    "archive": (
        "[]",
        ("redeploy", "demo_chain.json", "demo_scenario.json", "--archive", "bad.json"),
        "archive document must be a JSON object",
    ),
    "archive-version": (
        json.dumps({"module": "chain", "version": 2.5, "components": []}),
        ("redeploy", "demo_chain.json", "demo_scenario.json", "--archive", "bad.json"),
        "archive document: 'version' must be an integer",
    ),
    "snapshot": ("[]", ("analyze-deps", "demo_chain.json", "--snapshot", "bad.json"),
                 "snapshot document must be a JSON object"),
    "snapshot-instance": (
        without("chain_snapshot.json", ("instances", 0), "component"),
        ("analyze-deps", "demo_chain.json", "--snapshot", "bad.json"),
        "instance document missing keys: ['component']",
    ),
    "snapshot-time": (
        '{"time": "abc", "instances": []}',
        ("analyze-deps", "demo_chain.json", "--snapshot", "bad.json"),
        "snapshot document: 'time' must be an integer",
    ),
    "snapshot-remote-refs": (
        with_value("chain_snapshot.json", (), "remote_refs", []),
        ("analyze-deps", "demo_chain.json", "--snapshot", "bad.json"),
        "snapshot document: 'remote_refs' must be an object",
    ),
    "snapshot-idle": (
        with_value("chain_snapshot.json", ("instances", 0), "idle", "no"),
        ("analyze-deps", "demo_chain.json", "--snapshot", "bad.json"),
        "instance document 'A#0': 'idle' must be a boolean",
    ),
    "snapshot-repeated-key": (
        with_value("chain_snapshot.json", (), "instances",
                   json.loads((FIXTURES / "chain_snapshot.json").read_text())["instances"]
                   + [{"key": "A#0", "component": "C", "idle": True}]),
        ("analyze-deps", "demo_chain.json", "--snapshot", "bad.json"),
        "snapshot document: instance key 'A#0' appears twice",
    ),
    "descriptor": ("[]", ("classify", "bad.json", "--change", "Functional"), "component must be a JSON object"),
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_exits_one_naming_the_file(self, workdir, kind):
        text, args, message = MALFORMED[kind]
        (workdir / "bad.json").write_text(text)
        (workdir / "broken.json").write_text("{nope")
        result = run_cli("--out", "o", *args, cwd=workdir)
        assert result.returncode == 1
        assert result.stderr == f"error: bad.json: {message}\n"


class TestLifecycleCommands:
    def archive_doc(self, version: int = 1, duration: int = 5) -> str:
        return json.dumps(
            {
                "module": "shop",
                "version": version,
                "components": [comp("S", version=version, operations=[op("work", duration=duration)])],
            }
        )

    def test_distribute_start_stop_undeploy_cycle(self, workdir):
        (workdir / "shop.json").write_text(self.archive_doc())
        for args, expected_state in (
            (("distribute", "shop.json"), "Distributed"),
            (("start", "shop"), "Started"),
            (("stop", "shop"), "Stopped"),
            (("undeploy", "shop"), "Undeployed"),
        ):
            result = run_cli(*args, "--state", "state.json", cwd=workdir)
            assert result.returncode == 0, (args, result.stderr)
            state = json.loads((workdir / "state.json").read_text())
            assert state["modules"]["shop"]["state"] == expected_state

    @pytest.mark.parametrize(
        "state, message",
        [
            ({"modules": {"shop": {}}}, "module 'shop' missing keys: ['archive', 'state']"),
            ([], "state file must be a JSON object"),
            (
                {"modules": {"shop": {"archive": {"module": "shop", "components": []}, "state": "Bogus"}}},
                "module 'shop': state 'Bogus' is not one of "
                "['Distributed', 'Started', 'Stopped', 'Undeployed']",
            ),
        ],
        ids=["missing-keys", "not-an-object", "unknown-state"],
    )
    def test_malformed_state_file_exits_one_naming_it(self, workdir, state, message):
        (workdir / "state.json").write_text(json.dumps(state))
        result = run_cli("start", "shop", "--state", "state.json", cwd=workdir)
        assert result.returncode == 1
        assert result.stderr == f"error: state.json: {message}\n"
        assert json.loads((workdir / "state.json").read_text()) == state  # left as it was

    def test_start_before_distribute_exits_one(self, workdir):
        result = run_cli("start", "ghost", "--state", "state.json", cwd=workdir)
        assert result.returncode == 1

    def test_stop_with_scenario_exercises_drain(self, workdir):
        (workdir / "shop.json").write_text(self.archive_doc(duration=3))
        (workdir / "w.json").write_text(
            scenario_doc([{"id": "c", "access": "Remote",
                           "script": [{"at": 0, "call": {"component": "S", "interface": "IS", "operation": "work"}},
                                      {"at": 1, "call": {"component": "S", "interface": "IS", "operation": "work"}}]}])
        )
        run_cli("distribute", "shop.json", "--state", "state.json", cwd=workdir)
        run_cli("start", "shop", "--state", "state.json", cwd=workdir)
        result = run_cli(
            "stop", "shop", "--state", "state.json", "--scenario", "w.json", "--at", "0",
            cwd=workdir,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads((workdir / "state.json").read_text())["modules"]["shop"]["state"] == "Stopped"

    def test_redeploy_via_archive_flag(self, workdir):
        (workdir / "app.json").write_text(
            appdoc([comp("S", operations=[op("work", duration=5)])])
        )
        (workdir / "none.json").write_text(scenario_doc())
        (workdir / "shop_v2.json").write_text(self.archive_doc(version=2, duration=2))
        result = run_cli(
            "--out", "o", "redeploy", "app.json", "none.json",
            "--archive", "shop_v2.json", "--until", "100", cwd=workdir,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads((workdir / "o" / "report.json").read_text())
        assert report["outcome"] == "Completed"

    def test_redeploy_via_archive_flag_honours_drain_timeout(self, workdir):
        (workdir / "app.json").write_text(
            appdoc([comp("S", operations=[op("work", duration=500)])])
        )
        (workdir / "busy.json").write_text(
            scenario_doc([{"id": "c", "access": "Remote",
                           "script": [{"at": 0, "call": {"component": "S", "interface": "IS", "operation": "work"}}]}])
        )
        (workdir / "shop_v2.json").write_text(self.archive_doc(version=2, duration=2))
        result = run_cli(
            "--out", "o", "redeploy", "app.json", "busy.json", "--archive", "shop_v2.json",
            "--drain-timeout", "50", "--until", "1000", cwd=workdir,
        )
        assert result.returncode == 3, result.stderr
        report = json.loads((workdir / "o" / "report.json").read_text())
        assert report["outcome"] == "DrainTimeout"


class TestClassify:
    def test_prints_verdict_json(self, workdir):
        (workdir / "stateful.json").write_text(
            json.dumps(comp("S", kind="StatefulSession", state_fields=["a"],
                            operations=[op("work", duration=2)]))
        )
        result = run_cli(
            "classify", "stateful.json", "--change", "Structural", cwd=workdir
        )
        assert result.returncode == 0, result.stderr
        verdict = json.loads(result.stdout.strip().splitlines()[-1])
        assert verdict["verdict"] == "Unsafe"
        assert "HasConversationalState" in verdict["reasons"]

    def test_refs_decide_stateless_structural(self, workdir):
        (workdir / "stateless.json").write_text(
            json.dumps(comp("S", operations=[op("work", duration=2)], access={"IS": "Remote"}))
        )
        clean = run_cli("classify", "stateless.json", "--change", "Structural", cwd=workdir)
        assert json.loads(clean.stdout.strip().splitlines()[-1])["verdict"] == "Safe"
        held = run_cli(
            "classify", "stateless.json", "--change", "Structural", "--refs", "r1", cwd=workdir
        )
        assert json.loads(held.stdout.strip().splitlines()[-1])["verdict"] == "Unsafe"
