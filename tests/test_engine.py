from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quiesce.engine as engine_module
from quiesce.engine import (
    BARRIER_CLOSED,
    BARRIER_DRAINING,
    BARRIER_OPEN,
    Engine,
    EventLog,
    run,
)
from quiesce.errors import (
    AlreadyBarricaded,
    DrainTimeout,
    EngineFault,
    NotQuiescent,
    ProtocolViolation,
    ScenarioError,
    StateShapeMismatch,
)
from quiesce.manager import parse_request, run_scenario_with_request
from quiesce.model import load_application, parse_component
from quiesce.workload import parse_scenario

from builders import (
    app,
    auto,
    call_entry,
    client,
    comp,
    drain,
    iface,
    op,
    scenario_doc,
    store_contents,
    tree_components,
)
from conftest import read_fixture
from gen import generate_case
from oracles import full_scan_snapshot, replay_committed_writes


def single_stateless(duration: int = 5, tx: str = "StartsNew"):
    return app([comp("S", operations=[op("work", tx=tx, duration=duration)])])


def kinds_of(log, *kinds):
    return [(e.t, e.kind) for e in log if e.kind in kinds]


class TestBasicRuns:
    def test_empty_scenario_has_no_invocation_events(self):
        config = single_stateless()
        log, _ = run(config, parse_scenario(scenario_doc()), until=100)
        assert kinds_of(log, "InvocationStart", "InvocationEnd") == []

    def test_single_startsnew_call_trace(self):
        config = single_stateless(duration=5)
        scenario = parse_scenario(scenario_doc([client("c", call_entry(0, "S"))]))
        log, _ = run(config, scenario, until=100)
        trace = [(e.t, e.kind) for e in log]
        assert trace == [
            (0, "TxBegin"),
            (0, "InvocationStart"),
            (5, "InvocationEnd"),
            (5, "TxCommit"),
        ]

    def test_identical_inputs_give_byte_identical_logs(self):
        scenario = parse_scenario(read_fixture("demo_scenario.json"))
        from quiesce.model import load_application

        first, _ = run(load_application(read_fixture("demo_chain.json")), scenario, until=200)
        second, _ = run(load_application(read_fixture("demo_chain.json")), scenario, until=200)
        assert first.to_jsonl() == second.to_jsonl()

    def test_log_lines_are_sorted_key_json(self, chain_config):
        log, _ = run(chain_config, parse_scenario(read_fixture("demo_scenario.json")), until=200)
        expected = "".join(
            json.dumps({"t": e.t, "kind": e.kind, "payload": e.payload}, sort_keys=True) + "\n"
            for e in log
        )
        assert log.to_jsonl() == expected

    def test_chain_call_tree_timing(self, chain_config):
        scenario = parse_scenario(
            scenario_doc([client("c", {"at": 1, "call": {"component": "A", "interface": "IA", "operation": "frontWork"}})])
        )
        log, _ = run(chain_config, scenario, until=100)
        starts = {e.payload["component"]: e.t for e in log if e.kind == "InvocationStart"}
        ends = {e.payload["component"]: e.t for e in log if e.kind == "InvocationEnd"}
        assert starts == {"A": 1, "B": 1, "C": 1}
        assert ends == {"C": 4, "B": 8, "A": 18}
        assert [e.t for e in log if e.kind == "TxCommit"] == [18]

    def test_unknown_component_in_scenario_rejected(self):
        config = single_stateless()
        scenario = parse_scenario(scenario_doc([client("c", call_entry(0, "Z"))]))
        engine = Engine(config)
        with pytest.raises(ScenarioError):
            engine.load_scenario(scenario)

    def test_joins_without_ambient_transaction_starts_one(self):
        config = single_stateless(tx="Joins")
        scenario = parse_scenario(scenario_doc([client("c", call_entry(0, "S"))]))
        log, _ = run(config, scenario, until=50)
        assert len([e for e in log if e.kind == "TxBegin"]) == 1
        assert len([e for e in log if e.kind == "TxCommit"]) == 1

    def test_pool_exhaustion_queues_fifo(self):
        config = app(
            [comp("S", operations=[op("work", duration=10)])],
            containers=[{"hosted_component": "S", "pool_size": 1}],
        )
        scenario = parse_scenario(
            scenario_doc([client("c1", call_entry(0, "S")), client("c2", call_entry(1, "S"))])
        )
        log, _ = run(config, scenario, until=100)
        starts = [(e.t, e.payload["id"]) for e in log if e.kind == "InvocationStart"]
        assert starts == [(0, "c1:0"), (10, "c2:0")]


class TestEventLog:
    AWKWARD = [
        (0, "TxCommit", {"tx": "tx:c:0", "root": "c:0", "writes": [("db", "k", "c1", "save:c:0"), ("db", "k", "c2", None)]}),
        (0, "InvocationEnd", {"tx": None, "submitted_at": 0, "delta": -7, "big": 2**70, "ok": True, "ratio": 1.5}),
        (3, "Text", {"name": "é日本\U0001f600", "quoted": 'say "hi"', "path": "a\\b", "lines": "one\ntwo\r\t", "pct": "100%s%d%%"}),
        (3, 'Odd%s"Kind\\\n%d', {"z": {"b": [1, {"y": 2, "x": None}], "a": []}, "ü": 1, "A": 0}),
        (9, "Empty", {}),
    ]

    def test_awkward_payloads_serialise_like_json_dumps(self):
        log = EventLog()
        for t, kind, payload in self.AWKWARD:
            log.append(t, kind, payload)
        lines = log.to_jsonl().split("\n")
        assert lines.pop() == ""
        assert lines == [
            json.dumps({"t": t, "kind": kind, "payload": payload}, sort_keys=True) for t, kind, payload in self.AWKWARD
        ]

    def test_empty_log_is_empty_text_and_each_line_ends_once(self):
        log = EventLog()
        assert log.to_jsonl() == ""
        log.append(0, "Empty", {})
        assert log.to_jsonl() == '{"kind": "Empty", "payload": {}, "t": 0}\n'

    def test_time_going_backwards_is_an_engine_fault(self):
        log = EventLog()
        log.append(5, "A", {})
        log.append(5, "B", {})
        with pytest.raises(EngineFault, match="event log time went backwards"):
            log.append(4, "C", {})
        assert [e.kind for e in log] == ["A", "B"]

    def test_log_keeps_the_payload_it_is_handed(self):
        log = EventLog()
        payload = {"id": "c:0"}
        log.append(0, "InvocationStart", payload)
        assert log.events[0].payload is payload

    def test_an_engine_emission_before_the_last_event_is_an_engine_fault(self):
        engine = Engine(single_stateless(duration=5))
        engine.load_scenario(parse_scenario(scenario_doc([client("c", call_entry(3, "S"))])))
        engine.run(until=20)
        last = engine.log.events[-1]
        assert last.t == 8
        engine.clock = last.t - 1
        with pytest.raises(EngineFault, match="event log time went backwards"):
            engine.activate_barrier("S")
        assert engine.log.events[-1] is last


class TestTransactionsKept:
    """The engine keeps a transaction only while it is active."""

    @staticmethod
    def assert_only_active(engine) -> None:
        """Every kept transaction has begun and not committed."""
        assert any(e.kind == "TxCommit" for e in engine.log)
        begun = {e.payload["tx"] for e in engine.log if e.kind == "TxBegin"}
        committed = {e.payload["tx"] for e in engine.log if e.kind == "TxCommit"}
        assert set(engine.transactions) == begun - committed

    def test_demo_runs(self):
        scenario = parse_scenario(read_fixture("demo_scenario.json"))
        _, engine = run(load_application(read_fixture("demo_chain.json")), scenario, until=300)
        self.assert_only_active(engine)
        result = run_scenario_with_request(
            load_application(read_fixture("demo_chain.json")), scenario, parse_request(read_fixture("demo_request.json")), 300
        )
        assert result.report.outcome == "Completed"
        self.assert_only_active(result.engine)

    def test_generated_cases(self):
        for seed in range(1, 21):
            case = generate_case(seed)
            result = run_scenario_with_request(
                load_application(case.config_text), parse_scenario(case.scenario_text), case.request, 500
            )
            self.assert_only_active(result.engine)


class TestBarrier:
    def test_idle_container_quiesces_at_activation(self):
        engine = Engine(single_stateless())
        assert drain(engine, "S") == 0
        assert engine.containers["S"].barrier_mode == BARRIER_CLOSED

    def test_activation_while_draining_rejected(self):
        engine = Engine(single_stateless())
        engine.activate_barrier("S")
        with pytest.raises(AlreadyBarricaded):
            engine.activate_barrier("S")

    def test_in_flight_transaction_drains_then_quiesces(self):
        # invocation ends at 15; barrier at 10; a new call at 12 is held
        config = single_stateless(duration=12)
        engine = Engine(config)
        scenario = parse_scenario(
            scenario_doc([client("c1", call_entry(3, "S")), client("c2", call_entry(12, "S"))])
        )
        engine.load_scenario(scenario)
        engine.run(until=10)
        assert drain(engine, "S") == 15
        held = [e for e in engine.log if e.kind == "InvocationHeld"]
        assert [(e.t, e.payload["id"]) for e in held] == [(12, "c2:0")]

    def test_nested_joins_quiesce_only_after_root_commit(self):
        components = [
            comp(
                "A",
                provided=[iface("IA", "go")],
                required=["IB"],
                operations=[
                    op("go", tx="StartsNew", duration=10,
                       automaton=auto([("q0", "IB", "w", 2, "q1"), ("q1", "IB", "w", 4, "q2")]))
                ],
            ),
            comp("B", provided=[iface("IB", "w")], operations=[op("w", tx="Joins", duration=3)]),
        ]
        config = app(components, wiring=[("A", "IB", "B")])
        engine = Engine(config)
        engine.load_scenario(
            parse_scenario(scenario_doc([client("c", {"at": 0, "call": {"component": "A", "interface": "IA", "operation": "go"}})]))
        )
        engine.run(until=1)
        quiesced_at = drain(engine, "B")
        commit_at = [e.t for e in engine.log if e.kind == "TxCommit"]
        assert commit_at == [16]
        assert quiesced_at == 16  # both nested calls passed; closed only at root commit

    def test_closed_barrier_holds_new_work_but_readmits_active_transactions(self):
        # a root call to a Joins operation has no transaction yet: held at Closed
        config = single_stateless(duration=4, tx="Joins")
        engine = Engine(config)
        drain(engine, "S")  # closed immediately
        engine.load_scenario(parse_scenario(scenario_doc([client("c", call_entry(0, "S"))])))
        engine.run(until=10)
        assert [e.kind for e in engine.log if e.payload.get("id") == "c:0"] == ["InvocationHeld"]

    def _front_and_back(self):
        components = [
            comp("A", provided=[iface("IA", "go")], required=["ILog", "IB"],
                 operations=[op("go", duration=12,
                                automaton=auto([("q0", "ILog", "note", 5, "q1"),
                                                ("q1", "IB", "w", 1, "q2")]))]),
            comp("B", provided=[iface("IB", "w")], operations=[op("w", tx="Joins", duration=3)]),
        ]
        return app(components, wiring=[("A", "ILog", None), ("A", "IB", "B")])

    def test_closed_barrier_readmits_call_of_a_draining_transaction(self):
        # A is draining a transaction that still needs B: B's closed barrier
        # must fall back to draining rather than wedge A's drain forever
        engine = Engine(self._front_and_back())
        engine.load_scenario(
            parse_scenario(scenario_doc([client("c", {"at": 0, "call": {"component": "A", "interface": "IA", "operation": "go"}})]))
        )
        engine.run(until=1)
        engine.activate_barrier("A")  # the transaction now runs inside the barricade
        assert drain(engine, "B") == 1  # B idle: closes at once
        engine.run(until=6)  # A's nested call arrives at 5 and is re-admitted
        assert engine.containers["B"].barrier_mode == BARRIER_DRAINING
        engine.run(until=50)
        assert engine.containers["B"].barrier_mode == BARRIER_CLOSED
        commit = next(e.t for e in engine.log if e.kind == "TxCommit")
        closures = [e.t for e in engine.log if e.kind == "QuiescenceReached" and e.payload["component"] == "B"]
        assert closures[-1] == commit
        assert [e for e in engine.log if e.kind == "TxAbort"] == []

    def test_closed_barrier_parks_calls_of_outside_transactions(self):
        # same shape, but A is not barricaded: its transaction is outside
        # work, so the nested call parks at B until release — the drain of B
        # does not depend on it and the closure stands
        engine = Engine(self._front_and_back())
        engine.load_scenario(
            parse_scenario(scenario_doc([client("c", {"at": 0, "call": {"component": "A", "interface": "IA", "operation": "go"}})]))
        )
        engine.run(until=1)
        assert drain(engine, "B") == 1
        engine.run(until=20)
        assert engine.containers["B"].barrier_mode == BARRIER_CLOSED
        held = [e.payload["id"] for e in engine.log if e.kind == "InvocationHeld"]
        assert held == ["c:0.0"]  # external calls are not dispatched invocations
        engine.release_barrier("B")
        engine.run(until=60)
        assert [e for e in engine.log if e.kind == "TxAbort"] == []
        assert [e.t for e in engine.log if e.kind == "TxCommit"]  # eventually completes

    def test_release_replays_held_calls_fifo(self):
        config = single_stateless(duration=5)
        engine = Engine(config)
        engine.load_scenario(
            parse_scenario(
                scenario_doc(
                    [
                        client("c1", call_entry(2, "S")),
                        client("c2", call_entry(3, "S")),
                        client("c3", call_entry(4, "S")),
                    ]
                )
            )
        )
        drain(engine, "S")
        engine.run(until=4)
        engine.release_barrier("S")
        engine.run(until=100)
        starts = [e.payload["id"] for e in engine.log if e.kind == "InvocationStart"]
        assert starts == ["c1:0", "c2:0", "c3:0"]
        # conservation: each held call started exactly once
        held = [e.payload["id"] for e in engine.log if e.kind == "InvocationHeld"]
        assert sorted(held) == sorted(set(held)) == sorted(starts)

    def test_drain_timeout_releases_barrier(self):
        config = app(
            [comp("S", operations=[op("work", duration=500)])],
        )
        engine = Engine(config, drain_timeout=50)
        engine.load_scenario(parse_scenario(scenario_doc([client("c", call_entry(0, "S"))])))
        engine.run(until=5)
        with pytest.raises(DrainTimeout):
            drain(engine, "S")
        assert engine.containers["S"].barrier_mode == BARRIER_OPEN


class TestSwap:
    def new_s(self, duration: int = 2, version: int = 2):
        return parse_component(comp("S", version=version, operations=[op("work", duration=duration)]))

    def test_swap_requires_quiescence(self):
        engine = Engine(single_stateless())
        with pytest.raises(NotQuiescent):
            engine.swap_component("S", engine.config.with_component(self.new_s()))

    def test_stateless_swap_replays_held_after_swap_applied(self):
        engine = Engine(single_stateless(duration=5))
        engine.load_scenario(
            parse_scenario(
                scenario_doc(
                    [
                        client("c1", call_entry(1, "S")),
                        client("c2", call_entry(2, "S")),
                        client("c3", call_entry(3, "S")),
                    ]
                )
            )
        )
        engine.run(until=0)
        drain(engine, "S")  # immediate: nothing in flight yet
        engine.run(until=4)  # three arrivals held at the closed barrier
        engine.swap_component("S", engine.config.with_component(self.new_s()))
        engine.release_barrier("S")
        engine.run(until=100)
        events = [(e.t, e.kind, e.payload.get("id")) for e in engine.log
                  if e.kind in ("SwapApplied", "InvocationStart")]
        assert events[0][1] == "SwapApplied"
        assert [e[2] for e in events[1:]] == ["c1:0", "c2:0", "c3:0"]
        # replays ran against the new version: duration 2, not 5
        ends = [e.t - e.payload["submitted_at"] for e in engine.log if e.kind == "InvocationEnd"]
        assert all(latency >= 1 for latency in ends)
        assert engine.config.components()["S"].version == 2

    def test_stateful_swap_transfers_identical_state(self):
        config = app(
            [
                comp(
                    "S",
                    kind="StatefulSession",
                    state_fields=["a", "b"],
                    operations=[op("work", duration=2)],
                )
            ]
        )
        engine = Engine(config)
        engine.load_scenario(parse_scenario(scenario_doc([client("alice", call_entry(0, "S"))])))
        engine.run(until=10)
        instance = next(i for i in engine.containers["S"].instances if i.session == "alice")
        instance.state = {"a": 1, "b": 2}
        drain(engine, "S")
        new = parse_component(
            comp("S", kind="StatefulSession", version=2, state_fields=["a", "b"],
                 operations=[op("work", duration=1)])
        )
        engine.swap_component("S", engine.config.with_component(new))
        engine.release_barrier("S")
        survivor = next(i for i in engine.containers["S"].instances if i.session == "alice")
        assert survivor.state == {"a": 1, "b": 2}

    def test_stateful_swap_with_different_shape_refused(self):
        config = app(
            [
                comp(
                    "S",
                    kind="StatefulSession",
                    state_fields=["a", "b"],
                    operations=[op("work", duration=2)],
                )
            ]
        )
        engine = Engine(config)
        drain(engine, "S")
        new = parse_component(
            comp("S", kind="StatefulSession", version=2, state_fields=["a", "b", "c"],
                 operations=[op("work", duration=2)])
        )
        with pytest.raises(StateShapeMismatch):
            engine.swap_component("S", engine.config.with_component(new))
        assert engine.config.components()["S"].version == 1  # swap refused, nothing changed


class TestQueues:
    def md_app(self):
        return app(
            [
                comp(
                    "M",
                    kind="MessageDriven",
                    provided=[iface("IM", "onMessage")],
                    operations=[op("onMessage", tx="StartsNew", duration=2)],
                    queue="q",
                )
            ],
            queues=["q"],
        )

    def test_pause_inject_resume_preserves_order(self):
        engine = Engine(self.md_app())
        engine.pause_queue("q")
        for i in range(4):
            engine.enqueue_message("q", f"m{i}")
        assert [e.kind for e in engine.log if "Message" in e.kind] == ["MessageEnqueued"] * 4
        engine.resume_queue("q")
        engine.run(until=50)
        delivered = [e.payload["payload"] for e in engine.log if e.kind == "MessageDelivered"]
        assert delivered == ["m0", "m1", "m2", "m3"]

    def test_pause_and_resume_are_idempotent(self):
        engine = Engine(self.md_app())
        engine.pause_queue("q")
        engine.pause_queue("q")
        engine.enqueue_message("q", "m")
        engine.resume_queue("q")
        engine.resume_queue("q")
        engine.run(until=10)
        assert len([e for e in engine.log if e.kind == "MessageDelivered"]) == 1
        assert len([e for e in engine.log if e.kind == "QueuePaused"]) == 1
        assert len([e for e in engine.log if e.kind == "QueueResumed"]) == 1

    def test_delivery_order_equals_enqueue_order_across_cycles(self):
        engine = Engine(self.md_app())
        payloads = []
        for cycle in range(3):
            engine.pause_queue("q")
            for i in range(3):
                payload = f"c{cycle}-{i}"
                payloads.append(payload)
                engine.enqueue_message("q", payload)
            engine.resume_queue("q")
            engine.run(until=engine.clock + 20)
        delivered = [e.payload["payload"] for e in engine.log if e.kind == "MessageDelivered"]
        assert delivered == payloads

    def test_barrier_on_receiver_withholds_delivery(self):
        engine = Engine(self.md_app())
        drain(engine, "M")
        engine.enqueue_message("q", "m")
        engine.run(until=10)
        assert [e for e in engine.log if e.kind == "MessageDelivered"] == []
        engine.release_barrier("M")
        engine.run(until=20)
        assert len([e for e in engine.log if e.kind == "MessageDelivered"]) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        actions=st.lists(
            st.one_of(
                st.tuples(st.just("inject"), st.integers(min_value=0, max_value=9)),
                st.just(("pause", 0)),
                st.just(("resume", 0)),
                st.just(("advance", 0)),
            ),
            max_size=20,
        )
    )
    def test_delivery_is_an_enqueue_prefix_under_any_pause_pattern(self, actions):
        engine = Engine(self.md_app())
        sent = []
        for kind, arg in actions:
            if kind == "inject":
                payload = f"p{len(sent)}-{arg}"
                sent.append(payload)
                engine.enqueue_message("q", payload)
            elif kind == "pause":
                engine.pause_queue("q")
            elif kind == "resume":
                engine.resume_queue("q")
            else:
                engine.run(until=engine.clock + 5)
        engine.resume_queue("q")
        engine.run(until=engine.clock + 200)
        delivered = [e.payload["payload"] for e in engine.log if e.kind == "MessageDelivered"]
        assert delivered == sent  # nothing lost, nothing reordered


def scanned_receivers(engine: Engine) -> dict:
    """Queue -> the first container, in deployment order, bound to it, by a scan of every container."""
    receivers = {}
    for container in engine.containers.values():
        if container.bound_queue is not None:
            receivers.setdefault(container.bound_queue, container)
    return receivers


class TestQueueReceivers:
    """The queue -> receiver index follows every change of a container's queue binding."""

    @staticmethod
    def receiver(name: str, queue: str, version: int = 1) -> dict:
        return comp(name, kind="MessageDriven", version=version, provided=[iface(f"I{name}", "on")],
                    operations=[op("on", duration=2)], queue=queue)

    def test_index_equals_a_full_scan_after_swaps_a_removal_and_an_addition(self):
        engine = Engine(app([self.receiver("M", "q"), self.receiver("N", "r")], queues=["q", "r"]))
        assert engine._receivers == scanned_receivers(engine)
        assert engine._receivers["q"].name == "M" and engine._receivers["r"].name == "N"

        def rebind(name: str, queue: str, version: int) -> None:
            drain(engine, name)
            new = parse_component(self.receiver(name, queue, version))
            engine.swap_component(name, engine.config.with_component(new))
            engine.release_barrier(name)
            assert engine._receivers == scanned_receivers(engine)

        rebind("N", "q", 2)  # both bound to q: M, first in deployment order, receives
        assert engine._receivers["q"].name == "M" and "r" not in engine._receivers
        rebind("M", "r", 2)  # M leaves q for r: N receives q
        assert engine._receivers["q"].name == "N" and engine._receivers["r"].name == "M"
        engine.remove_component("N")
        assert engine._receivers == scanned_receivers(engine)
        assert "q" not in engine._receivers
        engine.add_component(parse_component(self.receiver("P", "q")), started=True)
        assert engine._receivers == scanned_receivers(engine)
        assert engine._receivers["q"].name == "P"
        engine.enqueue_message("q", "m")
        engine.enqueue_message("r", "n")
        engine.run(until=engine.clock + 10)
        started = [(e.payload["id"], e.payload["component"]) for e in engine.log if e.kind == "InvocationStart"]
        assert started == [("msg:q:0", "P"), ("msg:r:0", "M")]


class TestEntityStores:
    def entity_app(self):
        return app(
            [
                comp(
                    "E",
                    kind="Entity",
                    provided=[iface("IE", "save")],
                    operations=[op("save", tx="StartsNew", duration=2)],
                    entity_schema=["c1", "c2"],
                    data_store="db",
                )
            ],
            data_stores=[{"name": "db", "schema": ["c1", "c2"]}],
        )

    def test_writes_apply_only_at_commit(self):
        engine = Engine(self.entity_app())
        engine.load_scenario(
            parse_scenario(scenario_doc([client("c", {"at": 0, "call": {"component": "E", "interface": "IE", "operation": "save"}})]))
        )
        engine.run(until=1)
        assert store_contents(engine, "db") == {}  # still uncommitted
        engine.run(until=10)
        contents = store_contents(engine, "db")
        assert set(contents) == {"c"} and set(contents["c"]) == {"c1", "c2"}

    def test_store_contents_equal_commit_replay_oracle(self):
        engine = Engine(self.entity_app())
        script = [
            client("u1", {"at": 0, "call": {"component": "E", "interface": "IE", "operation": "save"}},
                   {"at": 5, "call": {"component": "E", "interface": "IE", "operation": "save"}}),
            client("u2", {"at": 2, "call": {"component": "E", "interface": "IE", "operation": "save"}}),
        ]
        engine.load_scenario(parse_scenario(scenario_doc(script)))
        engine.run(until=50)
        expected = replay_committed_writes(engine.log).get("db", {})
        assert store_contents(engine, "db") == expected

    def test_shadow_sync_copies_through_column_mapping(self):
        config = app(
            [
                comp(
                    "E",
                    kind="Entity",
                    provided=[iface("IE", "save")],
                    operations=[op("save", tx="StartsNew", duration=2)],
                    entity_schema=["c1", "c2"],
                    data_store="db",
                )
            ],
            data_stores=[
                {"name": "db", "schema": ["c1", "c2"]},
                {"name": "db2", "schema": ["k1", "c2"]},
            ],
        )
        engine = Engine(config)
        engine.load_scenario(
            parse_scenario(scenario_doc([client("c", {"at": 0, "call": {"component": "E", "interface": "IE", "operation": "save"}})]))
        )
        engine.run(until=10)
        rows = engine.sync_shadow_store("E", "db2", {"c1": "k1", "c2": "c2"})
        assert rows == 1
        old = store_contents(engine, "db")["c"]
        assert store_contents(engine, "db2")["c"] == {"k1": old["c1"], "c2": old["c2"]}


class TestCleanShutdown:
    def test_drain_then_deny(self):
        config = single_stateless(duration=3)
        engine = Engine(config)
        engine.load_scenario(
            parse_scenario(
                scenario_doc([client("c1", call_entry(0, "S")), client("c2", call_entry(1, "S"))])
            )
        )
        engine.run(until=0)
        engine.begin_clean_shutdown("S")
        engine.run(until=10)
        denied = [e for e in engine.log if e.kind == "InvocationDenied"]
        assert [(e.t, e.payload["id"], e.payload["reason"]) for e in denied] == [
            (1, "c2:0", "clean-shutdown")
        ]
        ends = [e.t for e in engine.log if e.kind == "InvocationEnd"]
        assert ends == [3]  # in-flight work completed exactly on time
        assert engine.is_drained("S")

    def test_clean_shutdown_never_aborts(self):
        config = single_stateless(duration=3)
        engine = Engine(config)
        engine.load_scenario(
            parse_scenario(scenario_doc([client("c", call_entry(0, "S"), call_entry(1, "S"))]))
        )
        engine.run(until=0)
        engine.begin_clean_shutdown("S")
        engine.run(until=20)
        assert [e for e in engine.log if e.kind == "TxAbort"] == []


class TestSessionsAndRefs:
    def test_fresh_system_snapshot_is_empty(self):
        engine = Engine(single_stateless())
        snapshot = engine.snapshot()
        assert snapshot.active_transactions == ()
        assert snapshot.remote_refs == ()
        assert snapshot.busy == () and dict(snapshot.idle) == {"S": ("S#0",)}

    def test_home_create_and_remove_tracks_remote_refs(self):
        engine = Engine(single_stateless())
        scenario = parse_scenario(
            scenario_doc(
                [
                    {
                        "id": "r1",
                        "access": "Remote",
                        "script": [
                            {"at": 0, "home": "create", "component": "S"},
                            {"at": 5, "home": "remove", "component": "S"},
                        ],
                    }
                ]
            )
        )
        engine.load_scenario(scenario)
        engine.run(until=1)
        assert engine.snapshot().refs_for("S") == frozenset({"r1"})
        engine.run(until=10)
        assert engine.snapshot().refs_for("S") == frozenset()

    def test_local_clients_never_enter_remote_refs(self):
        engine = Engine(single_stateless())
        scenario = parse_scenario(
            scenario_doc(
                [{"id": "l1", "access": "Local", "script": [{"at": 0, "home": "create", "component": "S"}]}]
            )
        )
        engine.load_scenario(scenario)
        engine.run(until=5)
        assert engine.snapshot().refs_for("S") == frozenset()

    def test_call_to_removed_operation_invalidates_session(self):
        engine = Engine(single_stateless(duration=2))
        engine.load_scenario(
            parse_scenario(scenario_doc([client("c", call_entry(5, "S", operation="work"))]))
        )
        drain(engine, "S")
        gutted = parse_component(
            comp("S", version=2, provided=[iface("IS", "other")],
                 operations=[op("other", duration=1)])
        )
        engine.swap_component("S", engine.config.with_component(gutted))
        engine.release_barrier("S")
        engine.run(until=20)
        invalidated = [e for e in engine.log if e.kind == "SessionInvalidated"]
        assert [e.payload["session"] for e in invalidated] == ["c"]
        denied = [e.payload for e in engine.log if e.kind == "InvocationDenied"]
        assert denied == [{"id": "c:0", "component": "S", "session": "c", "reason": "missing-operation"}]

    def test_component_call_to_removed_operation_is_protocol_violation(self):
        components = [
            comp(
                "A",
                provided=[iface("IA", "go")],
                required=["ILog", "IB"],
                operations=[
                    op("go", duration=20,
                       automaton=auto([("q0", "ILog", "note", 10, "q1"), ("q1", "IB", "w", 0, "q2")]))
                ],
            ),
            comp("B", provided=[iface("IB", "w")], operations=[op("w", tx="Joins", duration=3)]),
        ]
        config = app(components, wiring=[("A", "ILog", None), ("A", "IB", "B")])
        engine = Engine(config)
        engine.load_scenario(
            parse_scenario(scenario_doc([client("c", {"at": 0, "call": {"component": "A", "interface": "IA", "operation": "go"}})]))
        )
        engine.run(until=2)
        drain(engine, "B")
        gutted = parse_component(
            comp("B", version=2, provided=[iface("IB", "other")],
                 operations=[op("other", tx="Joins", duration=3)])
        )
        engine.swap_component("B", engine.config.with_component(gutted))
        engine.release_barrier("B")
        with pytest.raises(ProtocolViolation):
            engine.run(until=50)


class TestSnapshotCapture:
    def test_busy_instance_snapshot_is_immutable_value(self, chain_config):
        engine = Engine(chain_config, seed=42)
        engine.load_scenario(parse_scenario(read_fixture("demo_scenario.json")))
        engine.run(until=2)
        snapshot = engine.snapshot()
        busy = {i.key: i for i in snapshot.busy}
        assert "A#0" in busy or "A#1" in busy
        assert snapshot.time == 2
        # mutating the engine further must not disturb the captured value
        engine.run(until=50)
        assert snapshot.time == 2

    def test_only_busy_instances_become_records(self, monkeypatch):
        components, wiring, containers = tree_components(7)  # 127 containers, one warm instance each
        engine = Engine(app(components, wiring=wiring, containers=containers))
        built = []
        record = engine_module.InstanceSnapshot

        def counting(*args, **kwargs):
            built.append(kwargs.get("key", args[0] if args else None))
            return record(*args, **kwargs)

        monkeypatch.setattr(engine_module, "InstanceSnapshot", counting)
        snapshot = engine.snapshot()
        assert built == [] and snapshot.busy == ()
        assert len(snapshot.idle) == 127
        assert all(keys == (f"{name}#0",) for name, keys in snapshot.idle.items())
        leaf = [client("s", call_entry(0, "C126"), access="Local")]
        engine.load_scenario(parse_scenario(scenario_doc(leaf)))
        engine.run(until=1)  # the leaf works for 4 units
        snapshot = engine.snapshot()
        assert built == ["C126#0"]
        assert [(i.key, i.operation) for i in snapshot.busy] == [("C126#0", "work")]
        assert len(snapshot.idle) == 126 and "C126" not in snapshot.idle


class TestSnapshotMatchesFullScan:
    """The snapshot read through the engine's indexes equals a visit of every container.

    It is compared after every event of runs that grow pools, swap a
    stateful and an interchangeable component, add and remove components,
    and keep a transaction touching a container whose instance went idle.
    """

    @staticmethod
    def assert_matches(engine: Engine, seen: dict) -> bool:
        snapshot = engine.snapshot()
        assert snapshot == full_scan_snapshot(engine), engine.clock
        busy = {inst.component for inst in snapshot.busy}
        seen["touched_idle"] += any(name not in busy for name, _ in snapshot.active_transactions)
        seen["pool"] = max([seen["pool"], *(len(c.instances) for c in engine.containers.values())])
        return False

    def run_checked(self, engine: Engine, until: int, seen: dict) -> None:
        self.assert_matches(engine, seen)
        engine.run(until=until, stop_when=lambda: self.assert_matches(engine, seen))

    @staticmethod
    def fresh_seen() -> dict:
        return dict.fromkeys(("touched_idle", "pool"), 0)

    def test_pools_grow_and_transactions_outlive_their_instances(self, chain_config):
        scenario = parse_scenario(read_fixture("demo_scenario.json"))
        engine = Engine(chain_config, seed=scenario.seed)
        engine.load_scenario(scenario)
        seen = self.fresh_seen()
        self.run_checked(engine, 120, seen)
        assert seen["touched_idle"] and seen["pool"] > 1

    @pytest.mark.parametrize("kind", ["StatefulSession", "StatelessSession"])
    def test_swaps(self, kind):
        def s(version: int):
            fields = ["a"] if kind == "StatefulSession" else []
            return comp("S", kind=kind, version=version, state_fields=fields, operations=[op("work", duration=4)])

        engine = Engine(app([s(1)]))
        clients = [client(f"c{i}", call_entry(i, "S"), call_entry(30 + i, "S")) for i in range(3)]
        engine.load_scenario(parse_scenario(scenario_doc(clients)))
        seen = self.fresh_seen()
        self.run_checked(engine, 3, seen)
        engine.activate_barrier("S")
        self.run_checked(engine, 20, seen)
        assert engine.barrier_state("S") == BARRIER_CLOSED
        assert engine.snapshot().idle["S"] == ("S#0", "S#1", "S#2")
        engine.swap_component("S", engine.config.with_component(parse_component(s(2))))
        self.assert_matches(engine, seen)
        # survivors keep their keys; an interchangeable pool restarts at #0
        expected = ("S#0", "S#1", "S#2") if kind == "StatefulSession" else ("S#0",)
        assert engine.snapshot().idle["S"] == expected
        engine.release_barrier("S")
        self.run_checked(engine, 60, seen)
        assert seen["pool"] == 3

    def test_added_and_removed_components(self):
        a = comp("A", required=["IX"], operations=[op("work", duration=10, automaton=auto([("q0", "IX", "work", 5, "q1")]))])
        x = comp("X", operations=[op("work", tx="Joins", duration=1)])
        engine = Engine(app([a, x], wiring=[("A", "IX", "X")]))
        engine.load_scenario(parse_scenario(scenario_doc([client("c", call_entry(1, "A"))])))
        seen = self.fresh_seen()
        self.run_checked(engine, 4, seen)
        assert dict(engine.snapshot().active_transactions).keys() == {"A", "X"}
        assert [inst.component for inst in engine.snapshot().busy] == ["A"]
        engine.remove_component("X")  # idle, but A's transaction still touches it
        self.assert_matches(engine, seen)
        self.run_checked(engine, 20, seen)
        engine.add_component(parse_component(comp("Y")))
        self.assert_matches(engine, seen)
        engine.start_container("Y")
        self.assert_matches(engine, seen)
        assert engine.snapshot().idle["Y"] == ("Y#0",)
        engine.remove_component("Y")
        self.assert_matches(engine, seen)
        assert "Y" not in engine.snapshot().idle
        assert seen["touched_idle"]


def _full_scan_service_pool_queue(self, container):
    """Reference servicing: offer every waiter an instance on every call."""
    if not container.pool_wait:
        return
    remaining = []
    for inv in container.pool_wait:
        spec = container.descriptor.operation_spec(inv.operation)
        if spec is None:
            remaining.append(inv)
            continue
        instance = self._acquire_instance(container, inv)
        if instance is None:
            remaining.append(inv)
        else:
            self._begin(container, inv, spec, instance)
    container.pool_wait = remaining


def _same_log_as_full_scan(monkeypatch, drive) -> Engine:
    """Run ``drive()`` (which returns a finished engine) with both servicing loops."""
    head_only = drive()
    with monkeypatch.context() as patched:
        patched.setattr(Engine, "_service_pool_queue", _full_scan_service_pool_queue)
        full_scan = drive()
    assert head_only.log.to_jsonl() == full_scan.log.to_jsonl()
    return head_only


def _pool_waits(log) -> int:
    return sum(1 for e in log if e.kind == "InvocationStart" and e.t > e.payload["submitted_at"])


def _saturated_app(kind: str, pool: int):
    """Front F calls S twice per transaction; S runs in a pool of ``pool``."""
    back = {"entity_schema": ["c"], "data_store": "db"} if kind == "Entity" else {}
    return app(
        [
            comp("F", provided=[iface("IF", "go")], required=["IS"],
                 operations=[op("go", duration=6, automaton=auto(
                     [("q0", "IS", "work", 1, "q1"), ("q1", "IS", "work", 0, "q2")]))]),
            comp("S", kind=kind, operations=[op("work", tx="Joins", duration=3)], **back),
        ],
        wiring=[("F", "IS", "S")],
        containers=[
            {"hosted_component": "F", "pool_size": 8},
            {"hosted_component": "S", "pool_size": pool},
        ],
        data_stores=[{"name": "db", "schema": ["c"]}] if kind == "Entity" else None,
    )


def _saturating_scenario():
    """Twelve sessions: calls through F (joining) and straight to S (new work)."""
    front = {"component": "F", "interface": "IF", "operation": "go"}
    clients = [
        client(f"u{i}", *[{"at": i % 4 + 9 * k, "call": front} for k in range(3)],
               call_entry(i % 3 + 2, "S"), call_entry(i % 5 + 20, "S"))
        for i in range(12)
    ]
    return parse_scenario(scenario_doc(clients))


class TestPoolServicing:
    """Head-only servicing starts exactly the waiters the full scan starts."""

    @pytest.mark.parametrize("pool", [1, 2])
    @pytest.mark.parametrize("kind", ["StatelessSession", "Entity", "StatefulSession"])
    def test_saturated_pool_matches_full_scan(self, monkeypatch, kind, pool):
        def drive():
            engine = Engine(_saturated_app(kind, pool))
            engine.load_scenario(_saturating_scenario())
            engine.run(until=400)
            return engine

        engine = _same_log_as_full_scan(monkeypatch, drive)
        if kind != "StatefulSession":
            assert _pool_waits(engine.log) >= 100
            return
        # bound sessions start past waiters whose sessions never get an instance
        stuck = min(inv.submitted_at for inv in engine.containers["S"].pool_wait)
        overtakers = [e for e in engine.log if e.kind == "InvocationStart"
                      and e.payload["component"] == "S" and e.t > e.payload["submitted_at"] > stuck]
        assert overtakers

    @pytest.mark.parametrize("pool", [1, 2])
    def test_message_backlog_matches_full_scan(self, monkeypatch, pool):
        config = app(
            [
                comp("M", kind="MessageDriven", provided=[iface("IM", "onMessage")], required=["IE"],
                     operations=[op("onMessage", duration=3, automaton=auto([("q0", "IE", "save", 1, "q1")]))],
                     queue="q"),
                comp("E", kind="Entity", provided=[iface("IE", "save")],
                     operations=[op("save", tx="Joins", duration=2)],
                     entity_schema=["c"], data_store="db"),
            ],
            wiring=[("M", "IE", "E")],
            containers=[{"hosted_component": "M", "pool_size": pool},
                        {"hosted_component": "E", "pool_size": 1}],
            data_stores=[{"name": "db", "schema": ["c"]}],
            queues=["q"],
        )
        messages = [{"queue": "q", "payload": f"m{i}", "at": 0 if i < 60 else 40} for i in range(90)]

        def drive():
            engine = Engine(config)
            engine.load_scenario(parse_scenario(scenario_doc(messages=messages)))
            engine.run(until=1000)
            return engine

        engine = _same_log_as_full_scan(monkeypatch, drive)
        assert _pool_waits(engine.log) >= 50
        assert len([e for e in engine.log if e.kind == "InvocationEnd"]) == 180

    @pytest.mark.parametrize("kind", ["StatelessSession", "StatefulSession"])
    def test_barrier_activated_while_waiters_queue_matches_full_scan(self, monkeypatch, kind):
        def drive():
            engine = Engine(_saturated_app(kind, 1))
            engine.load_scenario(_saturating_scenario())
            engine.run(until=5)
            assert engine.containers["S"].pool_wait
            engine.activate_barrier("S")
            engine.run(until=400, stop_when=lambda: engine.barrier_state("S") == BARRIER_CLOSED)
            engine.release_barrier("S")
            engine.run(until=800)
            return engine

        engine = _same_log_as_full_scan(monkeypatch, drive)
        kinds = [e.kind for e in engine.log]
        assert "InvocationHeld" in kinds and "BarrierReleased" in kinds

    @pytest.mark.parametrize("kind", ["StatelessSession", "Entity", "StatefulSession"])
    def test_pool_raised_mid_run_matches_full_scan(self, monkeypatch, kind):
        def drive():
            engine = Engine(_saturated_app(kind, 1))
            engine.load_scenario(_saturating_scenario())
            engine.run(until=6)
            assert len(engine.containers["S"].pool_wait) >= 3
            engine.set_pool_size("S", 3)
            engine.run(until=400)
            return engine

        _same_log_as_full_scan(monkeypatch, drive)

    def test_waiter_whose_operation_a_swap_removed_keeps_its_place(self, monkeypatch):
        config = app(
            [comp("S", provided=[iface("IS", "work", "other")],
                  operations=[op("work", duration=20), op("other", duration=20)])],
            containers=[{"hosted_component": "S", "pool_size": 1}],
        )
        clients = [client(f"c{i}", call_entry(i, "S", operation=("work", "other")[i % 2]))
                   for i in range(8)]
        gutted = parse_component(comp("S", version=2, operations=[op("work", duration=20)]))

        def drive():
            engine = Engine(config)
            engine.load_scenario(parse_scenario(scenario_doc(clients)))
            engine.run(until=8)
            # a drain never closes over queued waiters, so close the barrier
            # by hand to let the swap strand them
            engine.containers["S"].barrier_mode = BARRIER_CLOSED
            engine.swap_component("S", engine.config.with_component(gutted))
            engine.release_barrier("S")
            engine.run(until=400)
            return engine

        engine = _same_log_as_full_scan(monkeypatch, drive)
        assert [inv.id for inv in engine.containers["S"].pool_wait] == ["c1:0", "c3:0", "c5:0", "c7:0"]
        started = [e.payload["id"] for e in engine.log if e.kind == "InvocationStart"]
        assert started == ["c0:0", "c2:0", "c4:0", "c6:0"]

    def test_waiter_redispatched_onto_the_same_pool_is_serviced(self, monkeypatch):
        # the last waiter, `work`, starts inside the servicing loop and calls
        # `leaf` on the same container at once; no instance is free, so that
        # call queues behind it and must still be there when the loop ends
        config = app(
            [comp("S", provided=[iface("IS", "work", "leaf")], required=["IS"],
                  operations=[op("work", duration=6, automaton=auto([("q0", "IS", "leaf", 1, "q1")])),
                              op("leaf", tx="Joins", duration=2)])],
            wiring=[("S", "IS", "S")],
            containers=[{"hosted_component": "S", "pool_size": 2}],
        )
        clients = [
            client(f"b{burst}c{i}", call_entry(40 * burst, "S", operation=operation))
            for burst in range(4)
            for i, operation in enumerate(["leaf", "leaf", "work"])
        ]

        def drive():
            engine = Engine(config)
            engine.load_scenario(parse_scenario(scenario_doc(clients)))
            engine.run(until=400)
            return engine

        engine = _same_log_as_full_scan(monkeypatch, drive)
        assert engine.containers["S"].pool_wait == []
        assert len([e for e in engine.log if e.kind == "InvocationEnd"]) == 16

    def test_acquisitions_grow_linearly_with_a_burst(self, monkeypatch):
        n = 200
        config = app(
            [comp("M", kind="MessageDriven", provided=[iface("IM", "onMessage")],
                  operations=[op("onMessage", duration=2)], queue="q")],
            containers=[{"hosted_component": "M", "pool_size": 1}],
            queues=["q"],
        )
        messages = [{"queue": "q", "payload": f"m{i}", "at": 0} for i in range(n)]
        acquire = Engine._acquire_instance
        calls = 0

        def counting(self, container, inv):
            nonlocal calls
            calls += 1
            return acquire(self, container, inv)

        monkeypatch.setattr(Engine, "_acquire_instance", counting)
        engine = Engine(config)
        engine.load_scenario(parse_scenario(scenario_doc(messages=messages)))
        engine.run()
        assert len([e for e in engine.log if e.kind == "InvocationEnd"]) == n
        assert calls <= 3 * n  # one per dispatch, then a start and a refusal per completion


class _CountingRandom:
    """Stands in for the ``random`` module; records each generator's seed."""

    def __init__(self) -> None:
        self.seeds: list[str] = []

    def Random(self, seed):
        self.seeds.append(seed)
        return random.Random(seed)


class TestBranchGenerator:
    def test_run_without_choices_creates_no_generator(self, monkeypatch, chain_config):
        shim = _CountingRandom()
        monkeypatch.setattr(engine_module, "random", shim)
        log, _ = run(chain_config, parse_scenario(read_fixture("demo_scenario.json")), until=300)
        assert len([e for e in log if e.kind == "InvocationStart"]) > 0
        assert shim.seeds == []

    def test_each_branching_execution_draws_from_its_own_seeded_generator(self, monkeypatch):
        # `go` loops on q0 choosing X.a, X.b or stopping, so one execution
        # draws several times from one generator; X never chooses
        config = app(
            [
                comp("A", provided=[iface("IA", "go")], required=["IX"],
                     operations=[op("go", duration=1, automaton=auto(
                         [("q0", "IX", "a", 1, "q0"), ("q0", "IX", "b", 1, "q0")], finals=["q0"]))]),
                comp("X", provided=[iface("IX", "a", "b")],
                     operations=[op("a", tx="Joins", duration=1), op("b", tx="Joins", duration=1)]),
            ],
            wiring=[("A", "IX", "X")],
        )
        go = {"component": "A", "interface": "IA", "operation": "go"}
        seed = 7
        scenario = parse_scenario(scenario_doc(
            [client(f"c{i}", {"at": 3 * i, "call": go}) for i in range(6)], seed=seed))
        shim = _CountingRandom()
        monkeypatch.setattr(engine_module, "random", shim)
        log, _ = run(config, scenario, until=500)

        roots = [f"c{i}:0" for i in range(6)]
        assert shim.seeds == [f"{seed}|{root}" for root in roots]
        options = list(config.components()["A"].operation_spec("go").effect_automaton.outgoing("q0"))
        called = [(e.payload["id"], e.payload["operation"]) for e in log
                  if e.kind == "InvocationStart" and e.payload["component"] == "X"]
        expected = []
        for root in roots:
            rng = random.Random(f"{seed}|{root}")
            emitted = 0
            while (pick := rng.choice(options + [None])) is not None:
                expected.append((f"{root}.{emitted}", pick.label.operation))
                emitted += 1
        assert sorted(called) == sorted(expected)
        assert {operation for _, operation in called} == {"a", "b"}


class TestWalkCap:
    """After ``_WALK_CAP`` nested calls an execution takes the fewest-hops route to a final state."""

    LOOPS = [f"s{i:02d}" for i in range(40)]
    GO = {"component": "A", "interface": "IA", "operation": "go"}

    def config(self, transitions, finals):
        operations = sorted({operation for _, _, operation, _, _ in transitions})
        return app(
            [
                comp("A", provided=[iface("IA", "go")], required=["IX"],
                     operations=[op("go", duration=1, automaton=auto(transitions, finals=finals))]),
                comp("X", provided=[iface("IX", *operations)],
                     operations=[op(o, tx="Joins", duration=1) for o in operations]),
            ],
            wiring=[("A", "IX", "X")],
        )

    @staticmethod
    def looping_draws(automaton, draws: int):
        """The first seed whose generator, drawing at q0 as the engine does, loops ``draws`` times; and the loops."""
        choices = automaton.choices("q0")
        for seed in range(10_000):
            rng = random.Random(f"{seed}|c:0")  # the root call of client c
            picks = [rng.choice(choices) for _ in range(draws)]
            if all(pick is not None and pick.target == "q0" for pick in picks):
                return seed, [pick.label.operation for pick in picks]
        raise AssertionError("no seed loops that long")

    def called(self, config, seed: int) -> list[str]:
        scenario = parse_scenario(scenario_doc([client("c", {"at": 0, "call": self.GO})], seed=seed))
        log, _ = run(config, scenario, until=10_000)
        assert [e.payload["id"] for e in log if e.kind == "InvocationEnd" and e.payload["component"] == "A"] == ["c:0"]
        return [e.payload["operation"] for e in log if e.kind == "InvocationStart" and e.payload["component"] == "X"]

    def test_a_final_state_stops_at_the_cap(self):
        assert engine_module._WALK_CAP == 64
        config = self.config([("q0", "IX", s, 1, "q0") for s in self.LOOPS], finals=["q0"])
        automaton = config.components()["A"].operation_spec("go").effect_automaton
        # uncapped, this seed's generator would loop once more
        seed, loops = self.looping_draws(automaton, engine_module._WALK_CAP + 1)
        assert self.called(config, seed) == loops[: engine_module._WALK_CAP]

    def test_a_looping_state_leaves_by_the_fewest_hops_route(self):
        exits = [
            ("q0", "IX", "far", 1, "q1"), ("q1", "IX", "f1", 1, "q2"), ("q2", "IX", "f2", 1, "qF"),
            ("q0", "IX", "near", 1, "q3"), ("q3", "IX", "n1", 1, "qF"),
        ]
        config = self.config([("q0", "IX", s, 1, "q0") for s in self.LOOPS] + exits, finals=["qF"])
        automaton = config.components()["A"].operation_spec("go").effect_automaton
        # "far" sorts first among q0's transitions; the route through "near" is shorter
        assert engine_module._toward_final(automaton, "q0").label.operation == "near"
        seed, loops = self.looping_draws(automaton, engine_module._WALK_CAP + 1)
        assert self.called(config, seed) == loops[: engine_module._WALK_CAP] + ["near", "n1"]
