"""Acceptance gate: every criterion at its stated tolerance, one line each.

The randomized suite (seeds 1..100, at most 6 components, at most 20
clients, 500 time units, one accepted redeploy per run) is built once and
shared; the remaining criteria run on the bundled fixtures and hand-traced
schedules.  Every check prints ``ACCEPTANCE <name>: PASS`` once it holds.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path

import pytest

import quiesce.engine as engine_module
from quiesce.depgraph import (
    ReconfigurationWindow,
    affected_set,
    build_runtime_graph,
    build_static_graph,
)
from quiesce.engine import ANY, EVENT_SCHEMA, INT, NULLABLE_STR, STR, Engine, run as engine_run
from quiesce.lifecycle import DeploymentManager, ModuleArchive
from quiesce.manager import (
    QosChange,
    ReconfigurationRequest,
    RedeploymentRun,
    build_plan,
    classify_structural_safety,
    execute_plan,
    parse_request,
    run_scenario_with_request,
)
from quiesce.metrics import compute_metrics
from quiesce.model import ChangeKind, load_application, parse_component
from quiesce.snapshot import load_snapshot
from quiesce.workload import parse_scenario

from builders import (
    app,
    auto,
    call_entry,
    call_latencies,
    client,
    comp,
    drain,
    iface,
    op,
    plan_span,
    scenario_doc,
    session_components,
    store_contents,
)
from conftest import FIXTURES, read_fixture, run_cli
from gen import AcceptanceCase, generate_case
from oracles import expected_shadow_contents, forward_simulation_affected

SEEDS = range(1, 101)
HORIZON = 500


@dataclass
class CaseRuns:
    case: AcceptanceCase
    control_events: list
    minimal: RedeploymentRun
    whole: RedeploymentRun
    minimal_repeat_jsonl: str


def _run_case(case: AcceptanceCase) -> CaseRuns:
    scenario = parse_scenario(case.scenario_text)
    control_log, _ = engine_run(load_application(case.config_text), scenario, until=HORIZON)
    minimal = run_scenario_with_request(
        load_application(case.config_text), scenario, case.request, HORIZON, blocking="minimal"
    )
    whole = run_scenario_with_request(
        load_application(case.config_text), scenario, case.request, HORIZON, blocking="whole-app"
    )
    repeat = run_scenario_with_request(
        load_application(case.config_text), scenario, case.request, HORIZON, blocking="minimal"
    )
    return CaseRuns(case, control_log.events, minimal, whole, repeat.log.to_jsonl())


@pytest.fixture(scope="module")
def suite() -> list[CaseRuns]:
    runs = []
    for seed in SEEDS:
        case = generate_case(seed)
        result = _run_case(case)
        assert result.minimal.report.outcome == "Completed", (
            f"seed {seed}: {result.minimal.report.outcome}"
        )
        assert result.whole.report.outcome == "Completed", (
            f"seed {seed}: whole-app {result.whole.report.outcome}"
        )
        runs.append(result)
    return runs


def _held_total_wait(events) -> int:
    held_at: dict[str, int] = {}
    total = 0
    latest = 0
    for event in events:
        latest = max(latest, event.t)
        if event.kind == "InvocationHeld":
            held_at[event.payload["id"]] = event.t
        elif event.kind == "InvocationStart":
            t0 = held_at.pop(event.payload["id"], None)
            if t0 is not None:
                total += event.t - t0
    for t0 in held_at.values():
        total += latest - t0
    return total


def _exclusivity_violations(events) -> list[str]:
    """Literal log scan: no swap may land inside an open transaction touching it."""
    touching: dict[str, set[str]] = {}  # active tx -> containers touched
    violations = []
    for event in events:
        if event.kind == "TxBegin":
            touching[event.payload["tx"]] = set()
        elif event.kind == "InvocationStart" and event.payload.get("tx") in touching:
            touching[event.payload["tx"]].add(event.payload["component"])
        elif event.kind in ("TxCommit", "TxAbort"):
            touching.pop(event.payload["tx"], None)
        elif event.kind == "SwapApplied":
            component = event.payload["component"]
            for tx, containers in touching.items():
                if component in containers:
                    violations.append(f"swap of {component} at t={event.t} inside {tx}")
    return violations


def _message_order_ok(events) -> bool:
    enqueued: dict[str, list[str]] = {}
    delivered: dict[str, list[str]] = {}
    for event in events:
        if event.kind == "MessageEnqueued":
            enqueued.setdefault(event.payload["queue"], []).append(event.payload["payload"])
        elif event.kind == "MessageDelivered":
            delivered.setdefault(event.payload["queue"], []).append(event.payload["payload"])
    for queue, sent in enqueued.items():
        got = delivered.get(queue, [])
        if got != sent[: len(got)]:
            return False
    return True


def test_zero_abort_redeployment(suite):
    """TxAbort count and lost messages are zero in every randomized run."""
    for runs in suite:
        for events in (runs.minimal.log.events, runs.whole.log.events):
            metrics = compute_metrics(events)
            assert metrics.aborted_transactions == 0, f"seed {runs.case.seed}"
            assert metrics.messages_lost == 0, f"seed {runs.case.seed}"
            assert _message_order_ok(events), f"seed {runs.case.seed}: delivery order broke"
    print("\nACCEPTANCE zero-abort-redeployment: PASS")


def test_transparency_for_unaffected_sessions(suite):
    """Sessions outside the affected set: no invalidation, identical latencies."""
    for runs in suite:
        affected = runs.minimal.report.affected
        touched: dict[str, set[str]] = {}
        for session, comps in session_components(runs.control_events).items():
            touched.setdefault(session, set()).update(comps)
        for session, comps in session_components(runs.minimal.log.events).items():
            touched.setdefault(session, set()).update(comps)
        outside = {s for s, comps in touched.items() if not comps & affected}
        control = call_latencies(runs.control_events, outside)
        redeploy = call_latencies(runs.minimal.log.events, outside)
        assert control == redeploy, f"seed {runs.case.seed}: latencies diverged"
        metrics = compute_metrics(runs.minimal.log.events)
        assert metrics.invalidated_sessions == 0, f"seed {runs.case.seed}"
    print("\nACCEPTANCE transparency: PASS")


def test_transaction_exclusivity(suite):
    """No SwapApplied lands inside any transaction touching the swapped container."""
    for runs in suite:
        assert _exclusivity_violations(runs.minimal.log.events) == [], f"seed {runs.case.seed}"
        assert _exclusivity_violations(runs.whole.log.events) == [], f"seed {runs.case.seed}"
    print("\nACCEPTANCE transaction-exclusivity: PASS")


def test_every_report_folds_its_plans_own_span(suite):
    """A report's downtime and held calls fold the plan's events, not the rest of the run."""
    for runs in suite:
        for result in (runs.minimal, runs.whole):
            own = compute_metrics(plan_span(result.log.events))
            report = result.report
            assert (report.downtime, report.held_count, report.held_max_wait) == (
                own.downtime, own.held_count, own.held_max_wait
            ), f"seed {runs.case.seed}"
    print("\nACCEPTANCE report-span: PASS")


FIXTURE_CASES = [
    ("demo_chain.json", "chain_snapshot.json", {"C"}, 100),
    ("demo_chain.json", "past_snapshot.json", {"C"}, 100),
    ("late_app.json", "late_snapshot.json", {"B"}, 10),
    ("late_app.json", "late_snapshot.json", {"B"}, 60),
    ("diamond_app.json", "diamond_snapshot.json", {"D"}, 100),
]


def test_minimal_graph_correctness():
    """Affected sets equal the forward-simulation oracle; monotone; inside the closure."""
    for app_name, snap_name, targets, duration in FIXTURE_CASES:
        config = load_application(read_fixture(app_name))
        snapshot = load_snapshot(read_fixture(snap_name), config)
        static = build_static_graph(config)
        window = ReconfigurationWindow(0, duration)
        computed = affected_set(build_runtime_graph(snapshot, window), static, frozenset(targets))
        oracle = forward_simulation_affected(snapshot, window, frozenset(targets))
        assert computed == oracle, (app_name, snap_name, targets, duration)
        closure = static.ancestors_of(frozenset(targets)) | targets
        assert computed <= closure
        previous = frozenset()
        for d in (1, 5, 20, 60, 200):
            current = affected_set(
                build_runtime_graph(snapshot, ReconfigurationWindow(0, d)), static, frozenset(targets)
            )
            assert previous <= current, "not monotone in window duration"
            previous = current
    print("\nACCEPTANCE minimal-graph-correctness: PASS")


def test_blocking_dominance(suite):
    """Minimal blocking never waits longer than whole-app; strictly less on proper subsets."""
    for runs in suite:
        minimal_wait = _held_total_wait(runs.minimal.log.events)
        whole_wait = _held_total_wait(runs.whole.log.events)
        assert minimal_wait <= whole_wait, f"seed {runs.case.seed}: {minimal_wait} > {whole_wait}"

    # dedicated fixture where the affected set is a proper subset: two disjoint
    # chains, one swap, a call into the untouched chain during the window
    front = lambda target_iface: auto(
        [("q0", "ILog", "note", 3, "q1"), ("q1", target_iface, "work", 1, "q2")]
    )
    def two_chains():
        return app(
            [
                comp("A", required=["ILog", "IB"],
                     operations=[op("work", duration=6, automaton=front("IB"))]),
                comp("B", provided=[iface("IB", "work")], operations=[op("work", tx="Joins", duration=2)]),
                comp("X", required=["ILog", "IY"],
                     operations=[op("work", duration=6, automaton=front("IY"))]),
                comp("Y", provided=[iface("IY", "work")], operations=[op("work", tx="Joins", duration=2)]),
            ],
            wiring=[("A", "ILog", None), ("A", "IB", "B"), ("X", "ILog", None), ("X", "IY", "Y")],
        )

    from quiesce.manager import ReconfigurationRequest, TargetChange

    new_b = parse_component(
        comp("B", version=2, provided=[iface("IB", "work")],
             operations=[op("work", tx="Joins", duration=2)])
    )
    request = ReconfigurationRequest(id="r", targets=(TargetChange("B", new_b),), requested_at=2)
    scenario = parse_scenario(
        scenario_doc(
            [
                client("s1", call_entry(0, "A"), call_entry(10, "A")),
                client("s2", call_entry(0, "X"), call_entry(10, "X")),
            ]
        )
    )
    minimal = run_scenario_with_request(two_chains(), scenario, request, 200, blocking="minimal")
    whole = run_scenario_with_request(two_chains(), scenario, request, 200, blocking="whole-app")
    assert minimal.report.affected < frozenset(two_chains().components())
    assert _held_total_wait(minimal.log.events) < _held_total_wait(whole.log.events)
    print("\nACCEPTANCE blocking-dominance: PASS")


def test_safety_rule_table():
    """The 12-case kind/change matrix, each cell at both ref settings."""
    def build(kind: str):
        extra = {}
        if kind == "StatefulSession":
            extra["state_fields"] = ["a"]
        if kind == "Entity":
            extra["entity_schema"] = ["c"]
            extra["data_store"] = "db"
        if kind == "MessageDriven":
            extra["queue"] = "q"
        return parse_component(comp("X", kind=kind, access={"IX": "Remote"}, **extra))

    expected = {
        ("StatefulSession", ChangeKind.STRUCTURAL, False): "Unsafe",
        ("StatefulSession", ChangeKind.STRUCTURAL, True): "Unsafe",
        ("StatefulSession", ChangeKind.FUNCTIONAL, False): "Safe",
        ("StatefulSession", ChangeKind.FUNCTIONAL, True): "Safe",
        ("StatefulSession", ChangeKind.NON_FUNCTIONAL, False): "Safe",
        ("StatefulSession", ChangeKind.NON_FUNCTIONAL, True): "Safe",
        ("StatelessSession", ChangeKind.STRUCTURAL, False): "Safe",
        ("StatelessSession", ChangeKind.STRUCTURAL, True): "Unsafe",
        ("StatelessSession", ChangeKind.FUNCTIONAL, False): "Safe",
        ("StatelessSession", ChangeKind.FUNCTIONAL, True): "Safe",
        ("StatelessSession", ChangeKind.NON_FUNCTIONAL, False): "Safe",
        ("StatelessSession", ChangeKind.NON_FUNCTIONAL, True): "Safe",
        ("Entity", ChangeKind.STRUCTURAL, False): "SafeWithMigration",
        ("Entity", ChangeKind.STRUCTURAL, True): "Unsafe",
        ("Entity", ChangeKind.FUNCTIONAL, False): "Safe",
        ("Entity", ChangeKind.FUNCTIONAL, True): "Safe",
        ("Entity", ChangeKind.NON_FUNCTIONAL, False): "Safe",
        ("Entity", ChangeKind.NON_FUNCTIONAL, True): "Safe",
        ("MessageDriven", ChangeKind.STRUCTURAL, False): "SafeWithPause",
        ("MessageDriven", ChangeKind.STRUCTURAL, True): "SafeWithPause",
        ("MessageDriven", ChangeKind.FUNCTIONAL, False): "SafeWithPause",
        ("MessageDriven", ChangeKind.FUNCTIONAL, True): "SafeWithPause",
        ("MessageDriven", ChangeKind.NON_FUNCTIONAL, False): "SafeWithPause",
        ("MessageDriven", ChangeKind.NON_FUNCTIONAL, True): "SafeWithPause",
    }
    for (kind, change, with_refs), verdict_name in expected.items():
        refs = frozenset({"remote-client"}) if with_refs else frozenset()
        verdict = classify_structural_safety(build(kind), change, refs, migration_available=True)
        assert verdict.verdict.value == verdict_name, (kind, change, with_refs)
    print("\nACCEPTANCE safety-rule-table: PASS")


def test_entity_migration_fidelity(suite):
    """Shadow store equals the commit-order replay oracle; row counts match at sync."""
    checked = 0
    for runs in suite:
        migration = runs.case.migration
        if migration is None:
            continue
        engine = runs.minimal.engine
        source = f"db_{migration.component}"
        expected = expected_shadow_contents(
            runs.minimal.log.events, migration.mapping(), source, migration.shadow_store
        )
        assert store_contents(engine, migration.shadow_store) == expected, f"seed {runs.case.seed}"
        synced = next(e for e in runs.minimal.log.events if e.kind == "StoreSynced")
        pre_sync_rows = {
            key
            for e in runs.minimal.log.events
            if e.kind == "TxCommit" and e.t <= synced.t
            for store, key, _, _ in e.payload["writes"]
            if store == source
        }
        assert synced.payload["rows"] == len(pre_sync_rows), f"seed {runs.case.seed}"
        checked += 1
    assert checked > 0, "generator produced no migration cases"

    # deterministic dedicated fixture, independent of generator luck
    config = app(
        [
            comp("E", kind="Entity", provided=[iface("IE", "save")],
                 operations=[op("save", duration=2)],
                 entity_schema=["c1", "c2"], data_store="db"),
        ],
        data_stores=[{"name": "db", "schema": ["c1", "c2"]},
                     {"name": "db2", "schema": ["k1", "c2"]}],
    )
    from quiesce.manager import EntityMigration, ReconfigurationRequest, TargetChange

    new = parse_component(
        comp("E", version=2, kind="Entity", provided=[iface("IE", "save")],
             operations=[op("save", duration=2)],
             entity_schema=["k1", "c2"], data_store="db2")
    )
    request = ReconfigurationRequest(
        id="m", targets=(TargetChange("E", new),),
        entity_migration=(EntityMigration("E", "db2", (("c1", "k1"), ("c2", "c2"))),),
        requested_at=10,
    )
    scenario = parse_scenario(
        scenario_doc(
            [client("u1", {"at": 0, "call": {"component": "E", "interface": "IE", "operation": "save"}},
                    {"at": 60, "call": {"component": "E", "interface": "IE", "operation": "save"}}),
             client("u2", {"at": 3, "call": {"component": "E", "interface": "IE", "operation": "save"}})]
        )
    )
    result = run_scenario_with_request(config, scenario, request, 200)
    assert result.report.outcome == "Completed"
    expected = expected_shadow_contents(result.log.events, {"c1": "k1", "c2": "c2"}, "db", "db2")
    assert store_contents(result.engine, "db2") == expected
    print("\nACCEPTANCE entity-migration-fidelity: PASS")


def test_determinism(suite, tmp_path):
    """Identical inputs produce byte-identical event logs and metrics files."""
    for runs in suite:
        assert runs.minimal.log.to_jsonl() == runs.minimal_repeat_jsonl, f"seed {runs.case.seed}"
    # and end to end through the CLI
    for name in ("demo_chain.json", "demo_scenario.json", "demo_request.json"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    outputs = []
    for out in ("r1", "r2"):
        proc = run_cli(
            "--out", out, "redeploy",
            "demo_chain.json", "demo_scenario.json", "demo_request.json", "--until", "300",
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(
            (
                (tmp_path / out / "events.jsonl").read_bytes(),
                (tmp_path / out / "metrics.json").read_bytes(),
                (tmp_path / out / "report.json").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]
    print("\nACCEPTANCE determinism: PASS")


# JSON type of an EVENT_SCHEMA row -> whether a payload value has it
FITS = {
    STR: lambda v: type(v) is str,
    NULLABLE_STR: lambda v: v is None or type(v) is str,
    INT: lambda v: type(v) is int,
    ANY: lambda v: True,
}


def _fixture_logs() -> list:
    """The event lists of the demo fixtures: a plain run and each request run the CLI pins."""
    chain, scenario = read_fixture("demo_chain.json"), parse_scenario(read_fixture("demo_scenario.json"))
    request = parse_request(read_fixture("demo_request.json"))
    logs = [engine_run(load_application(chain), scenario, until=300)[0].events]
    for blocking in ("minimal", "whole-app"):
        for timeout in (1000, 3):
            run = run_scenario_with_request(
                load_application(chain), scenario, request, 300, blocking=blocking, drain_timeout=timeout
            )
            logs.append(run.log.events)
    return logs


def _lifecycle_log() -> list:
    """A module's life that reaches the kinds no fixture does: a dropped operation, a resize, a stopped callee."""
    receiver = comp("M", kind="MessageDriven", provided=[iface("IM", "onMessage")], required=["IS"],
                    operations=[op("onMessage", automaton=auto([("q0", "IS", "work", 0, "q1")]))], queue="q")
    shop = comp("S", provided=[iface("IS", "work", "extra")], operations=[op("work", tx="Joins"), op("extra")])
    config = app([receiver, shop], wiring=[("M", "IS", "S")], queues=["q"])
    engine = Engine(config)
    manager = DeploymentManager(engine)
    manager.adopt_running("shop", ModuleArchive("shop", 1, (config.component("S"),)))
    extra = {"at": 10, "call": {"component": "S", "interface": "IS", "operation": "extra"}}
    message = {"queue": "q", "payload": "m", "at": 20}
    engine.load_scenario(parse_scenario(scenario_doc([client("c", extra)], messages=[message])))
    # the redeploy drops "extra": c's call at 10 invalidates its session
    shop_v2 = parse_component(comp("S", version=2, provided=[iface("IS", "work")], operations=[op("work", tx="Joins")]))
    assert manager.redeploy("shop", ModuleArchive("shop", 2, (shop_v2,))).outcome == "Completed"
    grow = ReconfigurationRequest("grow", (), qos_changes=(QosChange("S", 2),), requested_at=engine.clock)
    assert execute_plan(build_plan(grow, engine.snapshot()), engine).outcome == "Completed"
    engine.run(until=15)
    manager.stop("shop")  # the message at 20 makes M call the stopped S, with no session
    engine.run(until=50)
    reached = {(kind, payload.get("session")) for _, kind, payload in engine.log}
    assert {("InvocationDenied", None), ("SessionInvalidated", "c"), ("PoolSizeChanged", None)} <= reached
    return engine.log.events


def test_every_emitted_kind_has_a_schema_row_that_its_events_fit(suite):
    """Each ``self._emit(KIND, {...})`` in the engine source, reached or not, matches its row; so does every event."""
    source = Path(engine_module.__file__).read_text(encoding="utf-8")
    calls = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "_emit"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "self"
    ]
    assert len(calls) == source.count("self._emit(")
    emitted = set()
    for call in calls:
        name, payload = call.args
        kind = getattr(engine_module, name.id)
        assert kind in EVENT_SCHEMA, f"line {call.lineno}: {kind} has no schema row"
        assert {key.value for key in payload.keys} == set(EVENT_SCHEMA[kind]), f"line {call.lineno}: {kind}"
        emitted.add(kind)
    assert emitted == set(EVENT_SCHEMA)  # a row nothing emits is dead
    runs = [("fixture", events) for events in _fixture_logs()] + [("lifecycle", _lifecycle_log())]
    for r in suite:
        runs += [(r.case.seed, r.control_events), (r.case.seed, r.minimal.log.events), (r.case.seed, r.whole.log.events)]
    for where, events in runs:
        for t, kind, payload in events:
            row = EVENT_SCHEMA[kind]
            assert type(t) is int and set(payload) == set(row), (where, kind, payload)
            assert all(FITS[row[key]](value) for key, value in payload.items()), (where, kind, payload)
    print("\nACCEPTANCE event-schema: PASS")


def test_event_logs_serialise_like_json_dumps(suite):
    """``to_jsonl`` is byte-identical to one ``json.dumps(..., sort_keys=True)`` line per event."""
    for runs in suite:
        for log in (runs.minimal.log, runs.whole.log):
            reference = "".join(
                json.dumps({"t": t, "kind": kind, "payload": payload}, sort_keys=True) + "\n"
                for t, kind, payload in log
            )
            assert log.to_jsonl() == reference, f"seed {runs.case.seed}"
    print("\nACCEPTANCE log-serialisation: PASS")


def test_drain_semantics_hand_traces():
    """The three derived barrier schedules reach quiescence at the exact instants."""
    # idle container: quiescence at activation
    engine = Engine(app([comp("S", operations=[op("work", duration=5)])]))
    assert drain(engine, "S") == 0

    # one transaction with 5 units remaining at activation t=10: quiescence at 15,
    # and a new transaction-starting arrival at t=12 is held without extending the drain
    config = app([comp("S", operations=[op("work", duration=12)])])
    engine = Engine(config)
    engine.load_scenario(
        parse_scenario(scenario_doc([client("c1", call_entry(3, "S")), client("c2", call_entry(12, "S"))]))
    )
    engine.run(until=10)
    assert drain(engine, "S") == 15
    held = [(e.t, e.payload["id"]) for e in engine.log if e.kind == "InvocationHeld"]
    assert held == [(12, "c2:0")]

    # two nested joining calls inside one transaction: quiescence only at root commit
    config = app(
        [
            comp("A", provided=[iface("IA", "go")], required=["IB"],
                 operations=[op("go", duration=10,
                                automaton=auto([("q0", "IB", "w", 2, "q1"), ("q1", "IB", "w", 4, "q2")]))]),
            comp("B", provided=[iface("IB", "w")], operations=[op("w", tx="Joins", duration=3)]),
        ],
        wiring=[("A", "IB", "B")],
    )
    engine = Engine(config)
    engine.load_scenario(
        parse_scenario(scenario_doc([client("c", {"at": 0, "call": {"component": "A", "interface": "IA", "operation": "go"}})]))
    )
    engine.run(until=1)
    quiesced = drain(engine, "B")
    assert [e.t for e in engine.log if e.kind == "TxCommit"] == [16]
    assert quiesced == 16
    print("\nACCEPTANCE drain-semantics: PASS")
