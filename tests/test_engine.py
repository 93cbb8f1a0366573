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
    run,
)
from quiesce.errors import (
    AlreadyBarricaded,
    DrainTimeout,
    NotQuiescent,
    ProtocolViolation,
    ScenarioError,
    StateShapeMismatch,
)
from quiesce.model import parse_component
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
)
from conftest import read_fixture
from oracles import replay_committed_writes


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
            engine.swap_component("S", self.new_s())

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
        engine.swap_component("S", self.new_s())
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
        engine.swap_component("S", new)
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
            engine.swap_component("S", new)
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
        assert engine.store_contents("db") == {}  # still uncommitted
        engine.run(until=10)
        contents = engine.store_contents("db")
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
        assert engine.store_contents("db") == expected

    def test_aborted_transaction_writes_are_discarded(self):
        engine = Engine(self.entity_app())
        engine.load_scenario(
            parse_scenario(scenario_doc([client("c", {"at": 0, "call": {"component": "E", "interface": "IE", "operation": "save"}})]))
        )
        engine.run(until=1)
        tx_id = next(e.payload["tx"] for e in engine.log if e.kind == "TxBegin")
        # fault injection: the engine itself never aborts
        engine.transactions[tx_id].writes.append(("db", "c", "c1", "poison"))
        engine.abort_transaction(tx_id)
        engine.run(until=10)
        assert engine.store_contents("db") == {}
        assert len([e for e in engine.log if e.kind == "TxAbort"]) == 1

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
        old = engine.store_contents("db")["c"]
        assert engine.store_contents("db2")["c"] == {"k1": old["c1"], "c2": old["c2"]}


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
        assert all(inst.idle for inst in snapshot.instances)

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
        engine.swap_component("S", gutted)
        engine.run(until=20)
        invalidated = [e for e in engine.log if e.kind == "SessionInvalidated"]
        assert [e.payload["session"] for e in invalidated] == ["c"]

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
        engine.swap_component("B", gutted)
        with pytest.raises(ProtocolViolation):
            engine.run(until=50)


class TestSnapshotCapture:
    def test_busy_instance_snapshot_is_immutable_value(self, chain_config):
        engine = Engine(chain_config, seed=42)
        engine.load_scenario(parse_scenario(read_fixture("demo_scenario.json")))
        engine.run(until=2)
        snapshot = engine.snapshot()
        busy = {i.key: i for i in snapshot.instances if not i.idle}
        assert "A#0" in busy or "A#1" in busy
        assert snapshot.time == 2
        # mutating the engine further must not disturb the captured value
        engine.run(until=50)
        assert snapshot.time == 2


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
            engine.swap_component("S", gutted)
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
