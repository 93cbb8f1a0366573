from __future__ import annotations

import itertools
import json
import random
from dataclasses import replace
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quiesce.automata as automata_module
import quiesce.depgraph as depgraph_module
import quiesce.lifecycle as lifecycle_module
import quiesce.manager as manager_module
import quiesce.model as model_module
from quiesce.automata import ServiceEffectAutomaton
from quiesce.documents import decode, record, typed
from quiesce.engine import Engine
from quiesce.errors import DrainTimeout, IllegalTransition, Rejection, ValidationError, VersionError
from quiesce.lifecycle import (
    DeploymentManager,
    ModuleArchive,
    ModuleState,
    ProgressEvent,
    archive_to_json,
    parse_archive,
)
from quiesce.manager import ReconfigurationRequest, TargetChange, build_plan, execute_plan
from quiesce.metrics import compute_metrics
from quiesce.model import ComponentDescriptor, ContainerSpec, component_to_json, load_application, parse_component
from quiesce.workload import parse_scenario

from builders import (
    app,
    appdoc,
    auto,
    call_entry,
    client,
    comp,
    iface,
    op,
    operation_names,
    scenario_doc,
    state_of,
    tree_components,
)
from conftest import read_fixture
from gen import generate_case
from oracles import check_carried_indexes


@pytest.fixture(autouse=True)
def carried_indexes_match_a_fresh_build(monkeypatch):
    """Every configuration ``with_component`` makes here holds the indexes a fresh build gives."""
    check_carried_indexes(monkeypatch)


EMPTY_APP = '{"components": [], "version": 1}'


def archive(version: int = 1, duration: int = 5, extra_op: bool = False, kind: str = "StatelessSession") -> ModuleArchive:
    provided = [iface("IS", "work", "extra")] if extra_op else [iface("IS", "work")]
    operations = [op("work", duration=duration)]
    if extra_op:
        operations.append(op("extra", duration=1))
    kw = {}
    if kind == "StatefulSession":
        kw["state_fields"] = ["a"]
    doc = comp("S", kind=kind, version=version, provided=provided, operations=operations, **kw)
    return ModuleArchive("shop", version, (parse_component(doc),))


def fresh_manager() -> DeploymentManager:
    return DeploymentManager(Engine(load_application(EMPTY_APP)))


class TestLifecycleTransitions:
    def test_distribute_then_start_accepts_calls(self):
        manager = fresh_manager()
        manager.distribute(archive())
        assert state_of(manager, "shop") is ModuleState.DISTRIBUTED
        manager.start("shop")
        assert state_of(manager, "shop") is ModuleState.STARTED
        engine = manager.engine
        engine.load_scenario(parse_scenario(scenario_doc([client("c", call_entry(0, "S"))])))
        engine.run(until=20)
        assert len([e for e in engine.log if e.kind == "InvocationEnd"]) == 1

    def test_distributed_module_denies_calls_until_started(self):
        manager = fresh_manager()
        manager.distribute(archive())
        engine = manager.engine
        engine.load_scenario(parse_scenario(scenario_doc([client("c", call_entry(0, "S"))])))
        engine.run(until=20)
        denied = [e for e in engine.log if e.kind == "InvocationDenied"]
        assert [e.payload["reason"] for e in denied] == ["container-not-started"]

    def test_start_on_undeployed_is_illegal(self):
        manager = fresh_manager()
        manager.distribute(archive())
        manager.undeploy("shop")
        with pytest.raises(IllegalTransition):
            manager.start("shop")

    def test_stop_drains_then_denies(self):
        manager = fresh_manager()
        manager.distribute(archive(duration=3))
        manager.start("shop")
        engine = manager.engine
        engine.load_scenario(
            parse_scenario(scenario_doc([
                client("c1", call_entry(0, "S")), client("c2", call_entry(1, "S")), client("c3", call_entry(5, "S")),
            ]))
        )
        engine.run(until=0)
        manager.stop("shop")
        assert state_of(manager, "shop") is ModuleState.STOPPED
        assert engine.clock == 3  # stopped the instant the in-flight call completed
        engine.run(until=10)
        held = [(e.t, e.payload["id"]) for e in engine.log if e.kind == "InvocationHeld"]
        assert held == [(1, "c2:0")]  # held while the stop drained
        denied = [(e.t, e.payload["id"], e.payload["reason"]) for e in engine.log if e.kind == "InvocationDenied"]
        assert denied == [(3, "c2:0", "container-not-started"), (5, "c3:0", "container-not-started")]
        assert [e for e in engine.log if e.kind == "TxAbort"] == []

    def test_a_stop_waits_for_the_live_transactions_it_would_cut(self):
        """A's transaction has called B when B's module stops; its second call to B is served."""
        steps = [("q0", "IB", "w", 0, "q1"), ("q1", "IC", "w", 0, "q2"), ("q2", "IB", "w", 0, "q3")]
        config = app(
            [
                comp("A", provided=[iface("IA", "go")], required=["IB", "IC"],
                     operations=[op("go", duration=20, automaton=auto(steps))]),
                comp("B", provided=[iface("IB", "w")], operations=[op("w", tx="Joins", duration=2)]),
                comp("C", provided=[iface("IC", "w")], operations=[op("w", tx="Joins", duration=10)]),
            ],
            wiring=[("A", "IB", "B"), ("A", "IC", "C")],
        )
        engine = Engine(config)
        manager = DeploymentManager(engine)
        for module, name in (("front", "A"), ("back", "B"), ("side", "C")):
            manager.adopt_running(module, ModuleArchive(module, 1, (config.component(name),)))
        go = {"at": 0, "call": {"component": "A", "interface": "IA", "operation": "go"}}
        engine.load_scenario(parse_scenario(scenario_doc([client("c", go)])))
        engine.run(until=4)  # tx:c:0 has called B once and now waits on C
        assert manager.stop("back") is ModuleState.STOPPED
        assert engine.clock == 34
        b_events = [(e.t, e.kind, e.payload.get("id")) for e in engine.log if e.payload.get("component") == "B"]
        assert b_events == [
            (0, "InvocationStart", "c:0.0"),
            (2, "InvocationEnd", "c:0.0"),
            (4, "BarrierActivated", None),
            (12, "InvocationStart", "c:0.2"),  # joins the live transaction: served
            (14, "InvocationEnd", "c:0.2"),
            (34, "QuiescenceReached", None),
            (34, "BarrierReleased", None),
        ]
        assert [e.kind for e in engine.log if e.t == 34] == [
            "InvocationEnd", "TxCommit", "QuiescenceReached", "BarrierReleased",
        ]  # the stop ends only after tx:c:0 commits
        assert [e for e in engine.log if e.kind == "InvocationDenied"] == []

    @pytest.mark.parametrize(
        "chain, barrier, reason",
        [
            (["RedeployBarrier", "TxDemarcation", "Pooling"], False, "container 'Y' has no CleanShutdown interceptor"),
            (["CleanShutdown", "RedeployBarrier", "TxDemarcation", "Pooling"], True, "barrier on 'Y' is Closed"),
        ],
        ids=["no-clean-shutdown", "barrier-up"],
    )
    def test_a_refused_stop_gates_nothing(self, chain, barrier, reason):
        config = app(
            [comp("X"), comp("Y")],
            containers=[{"hosted_component": "X"}, {"hosted_component": "Y", "interceptor_chain": chain}],
        )
        engine = Engine(config)
        manager = DeploymentManager(engine)
        manager.adopt_running("pair", ModuleArchive("pair", 1, config.leaves))
        engine.load_scenario(parse_scenario(scenario_doc([client("c", call_entry(1, "X"))])))
        if barrier:
            engine.activate_barrier("Y")
        with pytest.raises(IllegalTransition, match=reason):
            manager.stop("pair")
        assert state_of(manager, "pair") is ModuleState.STARTED
        assert manager.events[-1] == ProgressEvent("Stop", "pair", "Failed", reason)
        assert engine.barrier_state("X") == "Open"
        engine.run(until=10)
        assert [(e.t, e.kind) for e in engine.log if e.payload.get("component") == "X"] == [
            (1, "InvocationStart"), (6, "InvocationEnd"),
        ]

    def test_a_failed_stop_delivers_what_was_queued_during_it(self):
        receiver = comp("M", kind="MessageDriven", provided=[iface("IM", "onMessage")],
                        operations=[op("onMessage", duration=50)], queue="q")
        manager = DeploymentManager(Engine(load_application(appdoc([], queues=["q"])), drain_timeout=10))
        manager.distribute(ModuleArchive("inbox", 1, (parse_component(receiver),)))
        manager.start("inbox")
        engine = manager.engine
        messages = [{"queue": "q", "payload": "m0", "at": 0}, {"queue": "q", "payload": "m1", "at": 5}]
        clients = [client("c", call_entry(5, "M", "onMessage", "IM"))]
        engine.load_scenario(parse_scenario(scenario_doc(clients, messages=messages)))
        engine.run(until=0)
        with pytest.raises(DrainTimeout):
            manager.stop("inbox")  # m1 and c:0 arrive while the stop drains
        assert state_of(manager, "inbox") is ModuleState.STARTED
        engine.run(until=500)
        delivered = [(e.t, e.payload["payload"]) for e in engine.log if e.kind == "MessageDelivered"]
        assert delivered == [(0, "m0"), (10, "m1")]  # the instant the stop gave up
        assert [(e.t, e.payload["id"]) for e in engine.log if e.kind == "InvocationHeld"] == [(5, "c:0")]
        starts = [(e.t, e.payload["id"]) for e in engine.log if e.kind == "InvocationStart"]
        assert starts == [(0, "msg:q:0"), (10, "c:0"), (10, "msg:q:1")]  # the held call starts at the timeout
        assert engine.snapshot().queue_depths == (("q", 0),)
        assert [e.payload["id"] for e in engine.log if e.kind == "InvocationEnd"] == ["msg:q:0", "c:0", "msg:q:1"]

    def test_stop_then_start_again(self):
        manager = fresh_manager()
        manager.distribute(archive())
        manager.start("shop")
        manager.stop("shop")
        manager.start("shop")
        assert state_of(manager, "shop") is ModuleState.STARTED

    def test_undeploy_requires_stopped_or_distributed(self):
        manager = fresh_manager()
        manager.distribute(archive())
        manager.start("shop")
        with pytest.raises(IllegalTransition):
            manager.undeploy("shop")
        manager.stop("shop")
        manager.undeploy("shop")
        assert state_of(manager, "shop") is ModuleState.UNDEPLOYED
        assert "S" not in manager.engine.config.components()

    def test_undeploying_a_nested_component_leaves_the_rest_redeployable(self):
        doc = json.loads(appdoc([comp("A"), comp("B")]))
        doc["composites"] = [{"name": "sub", "children": ["B"], "internal_wiring": []}]
        config = load_application(json.dumps(doc))
        manager = DeploymentManager(Engine(config))
        a, b = config.components()["A"], config.components()["B"]
        manager.adopt_running("front", ModuleArchive("front", 1, (a,)))
        manager.adopt_running("back", ModuleArchive("back", 1, (b,)))
        manager.stop("back")
        manager.undeploy("back")
        assert list(manager.engine.containers) == ["A"]
        assert list(manager.engine.config.components()) == ["A"]
        assert [c.hosted_component for c in manager.engine.config.containers] == ["A"]
        bumped = replace(a, version=2, operations=(replace(a.operations[0], duration=9),))
        report = manager.redeploy("front", ModuleArchive("front", 2, (bumped,)), blocking="whole-app")
        assert report.outcome == "Completed"
        assert manager.engine.config.components()["A"] is bumped

    def test_adopting_a_component_another_module_holds_is_refused(self):
        config = app([comp("S")])
        manager = DeploymentManager(Engine(config))
        held = (config.component("S"),)
        manager.adopt_running("one", ModuleArchive("one", 1, held))
        with pytest.raises(ValidationError, match=r"cannot adopt 'two': module 'one' holds \['S'\]"):
            manager.adopt_running("two", ModuleArchive("two", 1, held))
        assert list(manager.modules) == ["one"]
        # an undeployed module holds nothing: S deployed again may join another module
        manager.stop("one")
        manager.undeploy("one")
        manager.engine.add_component(held[0], ContainerSpec("S"), ())
        manager.adopt_running("two", ModuleArchive("two", 1, held))
        assert manager.stop("two") is ModuleState.STOPPED

    def test_every_operation_emits_one_terminal_progress_event(self):
        manager = fresh_manager()
        manager.distribute(archive())
        manager.start("shop")
        manager.redeploy("shop", archive(version=2, duration=7))
        with pytest.raises(ValidationError, match="unknown redeploy mode"):
            manager.redeploy("shop", archive(version=3, duration=9), mode="lenient")
        # a changed component whose version is not above the deployed one
        with pytest.raises(VersionError, match="new version 1 not greater than 2"):
            manager.redeploy("shop", replace(archive(version=1, duration=9), version=3))
        manager.stop("shop")
        manager.undeploy("shop")
        runs: list[tuple[str, list[str]]] = []
        for event in manager.events:
            if event.status == "Running":
                runs.append((event.operation, []))
            assert runs[-1][0] == event.operation
            runs[-1][1].append(event.status)
        assert runs == [
            ("Distribute", ["Running", "Completed"]),
            ("Start", ["Running", "Completed"]),
            ("Redeploy", ["Running", "Completed"]),
            ("Redeploy", ["Running", "Failed"]),
            ("Redeploy", ["Running", "Failed"]),
            ("Stop", ["Running", "Completed"]),
            ("Undeploy", ["Running", "Completed"]),
        ]
        assert "lenient" in manager.events[-7].detail
        assert "not greater than" in manager.events[-5].detail

    def test_command_sequences_up_to_length_six_respect_the_relation(self):
        """Exhaustive model check of the lifecycle state machine."""
        operations = ["distribute", "start", "stop", "undeploy"]
        allowed = {
            (None, "distribute"): ModuleState.DISTRIBUTED,
            (ModuleState.UNDEPLOYED, "distribute"): ModuleState.DISTRIBUTED,
            (ModuleState.DISTRIBUTED, "start"): ModuleState.STARTED,
            (ModuleState.STOPPED, "start"): ModuleState.STARTED,
            (ModuleState.STARTED, "stop"): ModuleState.STOPPED,
            (ModuleState.DISTRIBUTED, "undeploy"): ModuleState.UNDEPLOYED,
            (ModuleState.STOPPED, "undeploy"): ModuleState.UNDEPLOYED,
        }
        for length in range(1, 7):
            for sequence in itertools.product(operations, repeat=length):
                manager = fresh_manager()
                model_state: ModuleState | None = None
                for operation in sequence:
                    expected = allowed.get((model_state, operation))
                    try:
                        if operation == "distribute":
                            manager.distribute(archive())
                        else:
                            getattr(manager, operation)("shop")
                    except IllegalTransition:
                        assert expected is None, (sequence, operation, model_state)
                    else:
                        assert expected is not None, (sequence, operation, model_state)
                        model_state = expected
                        assert state_of(manager, "shop") is expected


class TestRedeploy:
    def started_manager(self, kind: str = "StatelessSession") -> DeploymentManager:
        manager = fresh_manager()
        manager.distribute(archive(kind=kind))
        manager.start("shop")
        return manager

    def test_functional_diff_completes_transparently(self):
        manager = self.started_manager()
        engine = manager.engine
        engine.load_scenario(
            parse_scenario(scenario_doc([client("c", call_entry(0, "S"), call_entry(30, "S"))]))
        )
        engine.run(until=1)
        signatures_before = engine.config.components()["S"].provided
        report = manager.redeploy("shop", archive(version=2, duration=2), mode="strict")
        assert report.outcome == "Completed"
        engine.run(until=100)
        metrics = compute_metrics(engine.log.events)
        assert metrics.invalidated_sessions == 0
        assert metrics.aborted_transactions == 0
        assert engine.config.components()["S"].version == 2
        # strict mode: the runtime configuration's interfaces are untouched
        assert engine.config.components()["S"].provided == signatures_before

    def test_strict_mode_refuses_structural_diffs(self):
        manager = self.started_manager()
        with pytest.raises(Rejection, match="runtime configuration must remain the same"):
            manager.redeploy("shop", archive(version=2, extra_op=True), mode="strict")
        # nothing changed
        assert manager.engine.config.components()["S"].version == 1
        sig_before = manager.engine.config.components()["S"].provided
        assert operation_names(sig_before[0]) == frozenset({"work"})
        with pytest.raises(ValidationError, match="unknown redeploy mode"):
            manager.redeploy("shop", archive(version=2), mode="lenient")

    def test_weakened_mode_allows_safe_structural_diffs(self):
        manager = self.started_manager()
        report = manager.redeploy("shop", archive(version=2, extra_op=True), mode="weakened")
        assert report.outcome == "Completed"
        provided = manager.engine.config.components()["S"].provided[0]
        assert operation_names(provided) == frozenset({"work", "extra"})

    def test_weakened_mode_still_rejects_unsafe_stateful_structural(self):
        manager = self.started_manager(kind="StatefulSession")
        new = archive(version=2, extra_op=True, kind="StatefulSession")
        with pytest.raises(Rejection):
            manager.redeploy("shop", new, mode="weakened")

    def test_each_report_covers_only_its_own_plan(self):
        manager = self.started_manager()
        engine = manager.engine
        calls = [client(f"c{k}", call_entry(3 * k, "S")) for k in range(30)]
        engine.load_scenario(parse_scenario(scenario_doc(calls)))
        engine.run(until=10)
        first = manager.redeploy("shop", archive(version=2, duration=5))
        engine.run(until=50)
        start = len(engine.log)
        second = manager.redeploy("shop", archive(version=3, duration=4))
        own = compute_metrics(engine.log.events[start:])
        assert first.held_count > 0 and second.held_count > 0
        assert (second.held_count, second.held_max_wait) == (own.held_count, own.held_max_wait)
        assert second.downtime == own.downtime

    def test_unchanged_components_are_untouched(self):
        manager = fresh_manager()
        two = ModuleArchive(
            "shop",
            1,
            (
                parse_component(comp("S", operations=[op("work", duration=5)])),
                parse_component(comp("T", operations=[op("work", duration=5)])),
            ),
        )
        manager.distribute(two)
        manager.start("shop")
        new = ModuleArchive(
            "shop",
            2,
            (
                parse_component(comp("S", version=2, operations=[op("work", duration=2)])),
                parse_component(comp("T", operations=[op("work", duration=5)])),
            ),
        )
        report = manager.redeploy("shop", new)
        assert report.outcome == "Completed"
        swapped = [e.payload["component"] for e in manager.engine.log if e.kind == "SwapApplied"]
        assert swapped == ["S"]  # T untouched
        barricaded = {e.payload["component"] for e in manager.engine.log if e.kind == "BarrierActivated"}
        assert "T" not in barricaded

    def test_module_structure_changes_are_refused(self):
        manager = self.started_manager()
        grown = ModuleArchive(
            "shop", 2,
            (parse_component(comp("S")), parse_component(comp("T"))),
        )
        with pytest.raises(Rejection, match="components added or removed"):
            manager.redeploy("shop", grown)

    def test_redeploy_requires_started_and_higher_version(self):
        manager = fresh_manager()
        manager.distribute(archive())
        with pytest.raises(IllegalTransition):
            manager.redeploy("shop", archive(version=2))
        manager.start("shop")
        with pytest.raises(ValidationError, match="version"):
            manager.redeploy("shop", archive(version=1))


def adopted(config) -> DeploymentManager:
    """A manager whose module "app" is every component of a running ``config``."""
    manager = DeploymentManager(Engine(config))
    manager.adopt_running("app", ModuleArchive("app", 1, tuple(config.components().values())))
    return manager


class StopBeforePlanning(Exception):
    pass


def diff_targets(manager: DeploymentManager, new: ModuleArchive, monkeypatch) -> list[str]:
    """The components ``redeploy`` would swap for ``new``; no plan is built or run."""
    seen: list[str] = []

    def record(request, config, mode):
        seen.extend(t.component for t in request.targets)
        raise StopBeforePlanning

    monkeypatch.setattr(lifecycle_module, "check_mode", record)
    try:
        report = manager.redeploy("app", new)
    except StopBeforePlanning:
        return seen
    assert report.outcome == "Completed"
    assert manager.events[-1].detail == "no component changed"
    return []


def reversed_transitions(automaton: ServiceEffectAutomaton) -> ServiceEffectAutomaton:
    return ServiceEffectAutomaton(
        automaton.states, automaton.initial, automaton.finals, automaton.transitions[::-1]
    )


class TestArchiveDiff:
    """Equal descriptors are untouched; otherwise the document forms decide."""

    def two_access_app(self):
        return app(
            [
                comp("S", provided=[iface("IA", "work"), iface("IB", "work")],
                     access={"IA": "Remote", "IB": "Local"}, required=["IT"],
                     operations=[op("work", automaton=auto([("q0", "IT", "work", 2, "q1"),
                                                            ("q0", "IT", "other", 3, "q1")]))]),
                comp("T", provided=[iface("IT", "work", "other")], operations=[op("work"), op("other")]),
            ],
            wiring=[("S", "IT", "T")],
        )

    def test_reordered_access_and_equal_copies_change_nothing(self, monkeypatch):
        config = self.two_access_app()
        manager = adopted(config)
        s, t = config.components()["S"], config.components()["T"]
        reordered = replace(s, access=s.access[::-1])
        copy = parse_component(component_to_json(t))
        assert reordered == s and copy == t and copy is not t  # access pairs keep one order
        assert diff_targets(manager, ModuleArchive("app", 2, (reordered, copy)), monkeypatch) == []
        log = manager.engine.log
        assert [e for e in log if e.kind in ("BarrierActivated", "SwapApplied")] == []
        assert manager.engine.config.components()["S"] is s  # the deployed descriptor stays

    def test_one_min_delay_or_the_transition_order_makes_a_target(self, monkeypatch):
        config = self.two_access_app()
        s = config.components()["S"]
        automaton = s.operations[0].effect_automaton
        slower = replace(automaton.transitions[0], min_delay=automaton.transitions[0].min_delay + 1)
        delayed = ServiceEffectAutomaton(
            automaton.states, automaton.initial, automaton.finals, (slower,) + automaton.transitions[1:]
        )
        for changed in (delayed, reversed_transitions(automaton)):
            new_s = replace(s, operations=(replace(s.operations[0], effect_automaton=changed),))
            archive = ModuleArchive("app", 2, (new_s, config.components()["T"]))
            assert diff_targets(adopted(config), archive, monkeypatch) == ["S"]

    @pytest.mark.parametrize("seed", range(1, 101))
    def test_generated_targets_equal_the_document_comparison(self, seed, monkeypatch):
        case = generate_case(seed)
        config = load_application(case.config_text)
        rng = random.Random(seed)
        new = []
        for c in config.components().values():
            roll = rng.randrange(5)
            if roll == 1:
                c = parse_component(component_to_json(c))  # an equal copy
            elif roll == 2 and c.name == case.target:
                c = case.request.targets[0].descriptor
            elif roll == 3:
                c = replace(c, operations=tuple(replace(o, duration=o.duration + 1) for o in c.operations))
            elif roll == 4 and c.operations[0].effect_automaton is not None:
                automaton = reversed_transitions(c.operations[0].effect_automaton)
                c = replace(c, operations=(replace(c.operations[0], effect_automaton=automaton),) + c.operations[1:])
            new.append(c)
        deployed = config.components()
        expected = sorted(
            c.name for c in new if component_to_json(c) != component_to_json(deployed[c.name])
        )
        assert diff_targets(adopted(config), ModuleArchive("app", 2, tuple(new)), monkeypatch) == expected


class TestRollingRedeployCost:
    """Successive archive redeploys recompute only what the change touched."""

    def test_dijkstra_runs_and_composition_checks_stay_bounded(self, monkeypatch):
        components, wiring, containers = tree_components(6, pool=4)  # 63 components
        config = app(components, wiring=wiring, containers=containers)
        manager = adopted(config)
        engine = manager.engine
        sessions = [client(f"s{k}", *(call_entry(1 + 9 * k + 25 * j, "C0") for j in range(24))) for k in range(6)]
        engine.load_scenario(parse_scenario(scenario_doc(sessions)))

        counts = {"dijkstra": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        # the per-state table fill runs one Dijkstra per call
        monkeypatch.setattr(automata_module, "_earliest_from",
                            counting("dijkstra", automata_module._earliest_from))
        checks = []  # (configuration, the names its check covers; None for all) per report computed
        real_check = model_module._check_composition

        def recording_check(config, names=None):
            checks.append((config, names))
            return real_check(config, names)

        monkeypatch.setattr(model_module, "_check_composition", recording_check)

        pairs: dict[tuple[int, str], ServiceEffectAutomaton] = {}  # values keep the ids unique
        busy = 0
        real_build = manager_module.build_runtime_graph

        def recording(snapshot, window):
            nonlocal busy
            deployed = snapshot.config.components()
            for component in snapshot.idle:
                for spec in deployed[component].operations:
                    if spec.effect_automaton is not None:
                        pairs[(id(spec.effect_automaton), spec.effect_automaton.initial)] = spec.effect_automaton
            for inst in snapshot.busy:
                if inst.cursor is not None:
                    busy += 1
                    pairs[(id(inst.cursor.automaton), inst.cursor.current)] = inst.cursor.automaton
            return real_build(snapshot, window)

        monkeypatch.setattr(manager_module, "build_runtime_graph", recording)

        docs = {c["name"]: c for c in components}
        rng = random.Random(6)
        redeploys = 20
        targets, installed = [], []
        for k in range(redeploys):
            engine.run(until=30 + 25 * k)
            targets.append(f"C{rng.randrange(len(docs))}")
            docs[targets[-1]] = dict(docs[targets[-1]], version=docs[targets[-1]]["version"] + 1)
            archive = ModuleArchive("app", k + 2, tuple(parse_component(d) for d in docs.values()))
            assert manager.redeploy("app", archive).outcome == "Completed"
            installed.append(engine.config)
        assert [e.payload["component"] for e in engine.log if e.kind == "SwapApplied"] == targets
        assert busy > 0 and pairs
        assert counts["dijkstra"] <= len(pairs)
        # each installed configuration checked its composition once, and only for its swapped component
        for target_config, target in zip(installed, targets):
            assert [names for checked, names in checks if checked is target_config] == [frozenset({target})]


class TestPlanBuildsNoInstanceEdge:
    """A plan reads its runtime graph's component-level ``callers`` only: it builds no instance edge."""

    def test_twenty_archive_redeploys_construct_no_runtime_edge(self, monkeypatch):
        components, wiring, containers = tree_components(6, pool=4)  # 63 components
        manager = adopted(app(components, wiring=wiring, containers=containers))
        engine = manager.engine
        sessions = [client(f"s{k}", *(call_entry(1 + 9 * k + 25 * j, "C0") for j in range(24))) for k in range(6)]
        engine.load_scenario(parse_scenario(scenario_doc(sessions)))

        constructed = 0
        real_edge = depgraph_module.RuntimeEdge

        def counting_edge(*args):
            nonlocal constructed
            constructed += 1
            return real_edge(*args)

        monkeypatch.setattr(depgraph_module, "RuntimeEdge", counting_edge)
        graphs = []
        real_build = manager_module.build_runtime_graph

        def recording(snapshot, window):
            graphs.append(real_build(snapshot, window))
            return graphs[-1]

        monkeypatch.setattr(manager_module, "build_runtime_graph", recording)

        docs = {c["name"]: c for c in components}
        rng = random.Random(6)
        for k in range(20):
            engine.run(until=30 + 25 * k)
            target = f"C{rng.randrange(len(docs))}"
            docs[target] = dict(docs[target], version=docs[target]["version"] + 1)
            archive = ModuleArchive("app", k + 2, tuple(parse_component(d) for d in docs.values()))
            assert manager.redeploy("app", archive).outcome == "Completed"
        assert len(graphs) == 20 and constructed == 0
        assert any(graph.callers for graph in graphs)
        # reading a graph's edges builds them through the name counted above
        assert sum(len(graph.edges) for graph in graphs) == constructed > 0


class TestRememberedDiff:
    """``redeploy`` skips comparing a (deployed, archive) pair only when both are the pair it found equal."""

    @staticmethod
    def component(name: str, version: int = 1, duration: int = 5) -> ComponentDescriptor:
        return parse_component(comp(name, version=version, operations=[op("work", duration=duration)]))

    def swaps(self, manager: DeploymentManager) -> list[tuple[str, int, int]]:
        return [(e.payload["component"], e.payload["from_version"], e.payload["to_version"])
                for e in manager.engine.log if e.kind == "SwapApplied"]

    def test_a_component_moved_on_by_a_request_plan_is_diffed_again(self):
        manager = fresh_manager()
        manager.distribute(ModuleArchive("shop", 1, (self.component("S"), self.component("T"))))
        manager.start("shop")
        equal_s = self.component("S")  # == the deployed S, another object
        second = ModuleArchive("shop", 2, (equal_s, self.component("T", 2, duration=6)))
        assert manager.redeploy("shop", second).outcome == "Completed"
        assert self.swaps(manager) == [("T", 1, 2)]
        # the request form moves S on behind the module's back
        engine = manager.engine
        request = ReconfigurationRequest("r", (TargetChange("S", self.component("S", 2, duration=7)),),
                                         requested_at=engine.clock)
        assert execute_plan(build_plan(request, engine.snapshot()), engine).outcome == "Completed"
        # the next archive hands back the very S found equal before; the deployed S now differs from it
        with pytest.raises(VersionError, match="new version 1 not greater than 2"):
            manager.redeploy("shop", ModuleArchive("shop", 3, (equal_s, second.components[1])))
        assert engine.config.component("S").version == 2

    def test_a_component_deployed_again_by_a_second_module_is_swapped(self):
        manager = fresh_manager()
        manager.distribute(ModuleArchive("first", 1, (self.component("S"),)))
        manager.start("first")
        equal_s = self.component("S")
        assert manager.redeploy("first", ModuleArchive("first", 2, (equal_s,))).outcome == "Completed"
        assert manager.events[-1].detail == "no component changed"
        manager.stop("first")
        manager.undeploy("first")
        manager.distribute(ModuleArchive("second", 1, (self.component("S", 0, duration=9),)))
        manager.start("second")
        assert manager.redeploy("second", ModuleArchive("second", 2, (equal_s,))).outcome == "Completed"
        assert self.swaps(manager) == [("S", 0, 1)]
        assert manager.engine.config.component("S") is equal_s

    def test_a_rolling_redeploy_compares_only_the_pairs_it_has_not_seen(self, monkeypatch):
        compared = []
        real_eq = ComponentDescriptor.__eq__

        def counting(self, other):
            if self is not other:
                compared.append(self.name)
            return real_eq(self, other)

        monkeypatch.setattr(ComponentDescriptor, "__eq__", counting)
        docs = chain_docs("Memo", 8)
        manager = fresh_manager()
        manager.distribute(ModuleArchive("memo", 1, tuple(parse_component(d) for d in docs)))
        manager.start("memo")
        rng = random.Random(5)
        changed = []
        for version in range(2, 12):
            k = rng.randrange(len(docs))
            docs[k] = dict(docs[k], version=docs[k]["version"] + 1)
            changed.append(docs[k]["name"])
            compared.clear()
            assert manager.redeploy("memo", parse_archive(archive_text("memo", version, docs))).outcome == "Completed"
            # the first archive meets every deployed descriptor once; after that, the changed one
            assert compared == ([d["name"] for d in docs] if version == 2 else [changed[-1]])
        assert [swap[0] for swap in self.swaps(manager)] == changed


def archive_text(module: str, version: int, docs: list) -> str:
    return json.dumps({"module": module, "version": version, "components": docs})


def chain_docs(prefix: str, n: int) -> list[dict]:
    """Components prefix0 .. prefix(n-1); each one's work calls the next one's."""
    names = [f"{prefix}{i}" for i in range(n)]
    docs = []
    for here, after in zip(names, names[1:] + [None]):
        steps = [("q0", f"I{after}", "work", 1, "q1")] if after else []
        docs.append(comp(here, required=[f"I{after}"] if after else [],
                         operations=[op("work", duration=2, automaton=auto(steps) if steps else None)]))
    return docs


class TestArchiveReuse:
    """``parse_archive`` parses only the component documents that differ from the last ones parsed.

    Each test uses component names no other test parses, so the result does
    not depend on the order the tests run in.
    """

    def test_twenty_redeploys_parse_one_archive_plus_the_changed_components(self, monkeypatch):
        parsed: list[str] = []
        real_parse = lifecycle_module.parse_component

        def counting(doc):
            parsed.append(doc["name"])
            return real_parse(doc)

        monkeypatch.setattr(lifecycle_module, "parse_component", counting)
        docs = chain_docs("Roll", 8)
        manager = fresh_manager()
        manager.distribute(parse_archive(archive_text("roll", 1, docs)))
        manager.start("roll")
        manager.engine.load_scenario(parse_scenario(scenario_doc(
            [client(f"c{k}", *(call_entry(3 * k + 7 * j, "Roll0") for j in range(20))) for k in range(3)]
        )))
        rng = random.Random(13)
        changed = []
        for version in range(2, 22):
            manager.engine.run(until=5 * version)
            k = rng.randrange(len(docs))
            docs[k] = dict(docs[k], version=docs[k]["version"] + 1)
            changed.append(docs[k]["name"])
            report = manager.redeploy("roll", parse_archive(archive_text("roll", version, docs)))
            assert report.outcome == "Completed"
        assert [e.payload["component"] for e in manager.engine.log if e.kind == "SwapApplied"] == changed
        assert len(parsed) <= len(docs) + len(changed)
        assert parsed[-len(changed):] == changed

    def test_an_unchanged_component_keeps_the_previous_descriptor(self):
        docs = chain_docs("Keep", 3)
        first = parse_archive(archive_text("keep", 1, docs))
        docs[1] = dict(docs[1], version=2)
        second = parse_archive(archive_text("keep", 2, docs))
        assert second.components[0] is first.components[0]
        assert second.components[2] is first.components[2]
        assert second.components[1] is not first.components[1]
        assert second.components[1] == parse_component(docs[1])
        assert parse_archive(archive_text("keep", 3, docs)).components[1] is second.components[1]

    def test_an_archive_of_unchanged_documents_with_a_duplicated_name_is_refused(self):
        docs = chain_docs("Twice", 2)
        parse_archive(archive_text("twice", 1, docs))
        with pytest.raises(ValidationError, match="duplicate component names"):
            parse_archive(archive_text("twice", 2, docs + docs[:1]))

    def test_a_document_equal_only_by_value_is_parsed_afresh(self):
        """``1`` == ``true`` in Python, but the descriptors they make differ.

        ``data_store`` is read as it is, so it can still hold either.
        """
        docs = [comp("Truth", kind="Entity", entity_schema=["c"], data_store=True)]
        assert parse_archive(archive_text("truth", 1, docs)).components[0].data_store is True
        docs[0] = dict(docs[0], data_store=1)
        store = parse_archive(archive_text("truth", 2, docs)).components[0].data_store
        assert store == 1 and type(store) is int


def cache_free_parse_archive(text: str) -> ModuleArchive:
    """What ``parse_archive`` must return: a fresh decode, the record checks, every element parsed."""
    what = "archive document"
    doc = record(decode(text, "archive"), frozenset({"module", "version", "components"}), what, frozenset({"module"}))
    return ModuleArchive(
        typed(doc, "module", (str,), what),
        typed(doc, "version", (int,), what, default=1),
        tuple(parse_component(c) for c in typed(doc, "components", (list,), what, default=[])),
    )


def parse_outcome(parse, text: str):
    """The archive ``parse`` returns for ``text``, or the type and text of what it raises."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


# the cache stays as it was after these: each makes text the walk leaves to ``decode`` (a
# repeated key parses, the rest are refused) or an element ``parse_component`` refuses
IRREGULAR = ("repeated-key", "trailing", "trailing-comma", "truncated", "non-object")
ARCHIVE_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["bump", "version", "duration", "fields", "replace", "insert", "reorder", "other", "spaced",
             "duplicate-name", "unknown-key", *IRREGULAR]
        ),
        st.integers(0, 50),
        st.sampled_from([{}, {"indent": 2}, {"separators": (",", ":")}]),
    ),
    max_size=14,
)


class TestArchiveCacheEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(size=st.integers(0, 4), steps=ARCHIVE_STEPS)
    def test_every_archive_parses_as_a_cache_free_parse_would(self, size, steps):
        names = itertools.count()

        def fresh() -> dict:
            return comp(f"Eq{next(names)}", operations=[op("work", duration=1)])

        modules = {"app": [fresh() for _ in range(size)], "other": [fresh()]}
        versions = {"app": 1, "other": 1}
        for action, n, style in steps:
            module = "other" if action == "other" else "app"
            docs = modules[module]
            k = n % len(docs) if docs else 0
            if action == "bump":
                versions[module] += 1
            elif action in ("version", "other") and docs:
                docs[k] = dict(docs[k], version=docs[k]["version"] + 1)
            elif action == "duration" and docs:
                docs[k] = dict(docs[k], operations=[op("work", duration=n % 3 + 1)])
            elif action == "fields" and docs:
                docs[k] = dict(docs[k], state_fields=([True], [1], [1.0], ["a"], [])[n % 5])
            elif action == "replace" and docs:
                docs[k] = fresh()
            elif action == "insert":
                docs.insert(n % (len(docs) + 1), fresh())
            elif action == "reorder" and docs:
                docs.insert(n // 7 % len(docs), docs.pop(k))
            components = list(docs)
            if action == "non-object":
                components.insert(n % (len(docs) + 1), (1, [], "A", None, True)[n % 5])
            elif action == "duplicate-name" and docs:
                components.append(docs[k])
            elif action == "unknown-key" and docs:
                components[k] = dict(docs[k], bogus=1)
            text = json.dumps({"module": module, "version": versions[module], "components": components}, **style)
            if action == "spaced":
                text = f"\n {text}\t\r\n"
            elif action == "repeated-key":
                text = '{"%s": 0, %s' % (("module", "version", "components")[n % 3], text[1:])
            elif action == "trailing":
                text += (" {}", "x", " ,", "\n1")[n % 4]
            elif action == "trailing-comma":  # after the last element, or the last key's value
                end = text.rindex("]}"[n % 2])
                text = f"{text[:end]},{text[end:]}"
            elif action == "truncated":
                text = text[: n * len(text) // 51]

            before = lifecycle_module._LAST_COMPONENTS
            got = parse_outcome(parse_archive, text)
            want = parse_outcome(cache_free_parse_archive, text)
            # repr tells 1 from True and 1.0 where == does not
            assert got == want and repr(got) == repr(want), (action, text)
            after = lifecycle_module._LAST_COMPONENTS
            if action in IRREGULAR or not isinstance(got, ModuleArchive):
                assert after is before
                continue
            # the cache holds this archive's elements, each with the descriptor returned for it
            elements = json.loads(text)["components"]
            assert len(after) == len(elements) == len(got.components)
            start = 0
            for (element, descriptor), doc, parsed in zip(after, elements, got.components):
                assert descriptor is parsed and json.loads(element) == doc
                start = text.index(element, start) + len(element)


class TestArchiveDocuments:
    def test_round_trip(self):
        doc = json.dumps(archive_to_json(archive(version=3)))
        parsed = parse_archive(doc)
        assert parsed.module == "shop"
        assert parsed.version == 3
        assert parsed.components[0].name == "S"

    def test_duplicate_component_names_rejected(self):
        with pytest.raises(ValidationError):
            ModuleArchive("m", 1, (parse_component(comp("S")), parse_component(comp("S"))))

    def test_auto_wiring_within_module(self):
        manager = fresh_manager()
        pair = ModuleArchive(
            "m", 1,
            (
                parse_component(
                    comp("F", required=["IG"],
                         operations=[op("work", duration=2)])
                ),
                parse_component(comp("G", provided=[iface("IG", "serve")],
                                     operations=[op("serve", duration=1)])),
            ),
        )
        manager.distribute(pair)
        config = manager.engine.config
        assert config.provider_of("F", "IG") == "G"

    def test_missing_provider_becomes_external(self):
        manager = fresh_manager()
        lone = ModuleArchive(
            "m", 1,
            (parse_component(comp("F", required=["IZ"], operations=[op("work", duration=2)])),),
        )
        manager.distribute(lone)
        assert manager.engine.config.is_declared_external("F", "IZ")

    @pytest.mark.parametrize("deployed", [(), ("G",)], ids=["both-in-the-module", "one-already-deployed"])
    def test_two_providers_are_ambiguous(self, deployed):
        def serving(name):
            return parse_component(comp(name, provided=[iface("IG", "serve")], operations=[op("serve")]))

        manager = fresh_manager()
        if deployed:
            manager.distribute(ModuleArchive("base", 1, tuple(serving(name) for name in deployed)))
        providers = [serving(name) for name in ("H", "G") if name not in deployed]
        module = ModuleArchive("m", 1, (parse_component(comp("F", required=["IG"])), *providers))
        text = "'F' requires 'IG' with ambiguous providers ['G', 'H']"
        with pytest.raises(ValidationError) as info:
            manager.distribute(module)
        assert str(info.value) == text
        assert manager.events[-1] == ProgressEvent("Distribute", "m", "Failed", text)
        assert "m" not in manager.modules

    def test_a_failed_distribute_removes_what_it_added(self):
        def serving(name):
            return parse_component(comp(name, provided=[iface("IG", "serve")], operations=[op("serve")]))

        manager = fresh_manager()
        before = manager.engine.config
        client_of_ig = parse_component(comp("F", required=["IG"]))
        with pytest.raises(ValidationError, match="ambiguous providers"):
            manager.distribute(ModuleArchive("m", 1, (serving("H"), serving("G"), client_of_ig)))
        assert manager.engine.config == before
        assert not manager.engine.containers
        # the corrected module distributes: nothing of the failed attempt is left deployed
        assert manager.distribute(ModuleArchive("m", 1, (serving("H"), client_of_ig))) is ModuleState.DISTRIBUTED
        assert manager.engine.config.provider_of("F", "IG") == "H"

    def test_a_component_is_never_its_own_provider(self):
        manager = fresh_manager()
        serving = dict(provided=[iface("IG", "serve")], operations=[op("serve")])
        manager.distribute(ModuleArchive(
            "m", 1, (parse_component(comp("F", required=["IG"], **serving)), parse_component(comp("G", **serving)))
        ))
        assert manager.engine.config.provider_of("F", "IG") == "G"

    def test_distribute_builds_the_leaf_index_at_most_twice(self, monkeypatch):
        builds = 0
        leaves = model_module.ApplicationConfiguration._leaves.func

        def counting(config):
            nonlocal builds
            builds += 1
            return leaves(config)

        counted = cached_property(counting)
        counted.__set_name__(model_module.ApplicationConfiguration, "_leaves")
        monkeypatch.setattr(model_module.ApplicationConfiguration, "_leaves", counted)
        manager = fresh_manager()
        docs = chain_docs("W", 200)
        manager.distribute(ModuleArchive("wide", 1, tuple(parse_component(d) for d in docs[::-1])))
        assert builds <= 2
        config = manager.engine.config
        assert [config.provider_of(f"W{i}", f"IW{i + 1}") for i in range(199)] == [f"W{i + 1}" for i in range(199)]


class TestPlanMeasurementBoundary:
    """Each plan begins with one argument-free ``Engine.snapshot()`` and ends in ``build_plan``.

    The pause at the request instant is timed from outside the package by
    wrapping exactly these two calls: ``Engine.snapshot`` on the class and
    ``build_plan`` as an attribute of the module that calls it.  A plan path
    that captured its state another way, or held a reference to
    ``build_plan`` bound at import, would drop out of that measurement
    without any error.
    """

    @staticmethod
    def recorded_calls(monkeypatch) -> list:
        calls = []
        snapshot = Engine.snapshot

        def recorded_snapshot(self, *args, **kwargs):
            calls.append(("snapshot", args, kwargs))
            return snapshot(self, *args, **kwargs)

        monkeypatch.setattr(Engine, "snapshot", recorded_snapshot)
        for module in (manager_module, lifecycle_module):

            def recorded_plan(*args, _build=module.build_plan, _caller=module.__name__, **kwargs):
                calls.append(("build_plan", _caller))
                return _build(*args, **kwargs)

            monkeypatch.setattr(module, "build_plan", recorded_plan)
        return calls

    def test_archive_redeploys(self, monkeypatch):
        components, wiring, containers = tree_components(3)
        manager = adopted(app(components, wiring=wiring, containers=containers))
        engine = manager.engine
        engine.load_scenario(parse_scenario(scenario_doc([client("s", *(call_entry(4 * j, "C0") for j in range(8)))])))
        calls = self.recorded_calls(monkeypatch)
        docs = {c["name"]: c for c in components}
        for version, target in ((2, "C2"), (3, "C5")):
            engine.run(until=10 * version)
            docs[target] = dict(docs[target], version=docs[target]["version"] + 1)
            archive = ModuleArchive("app", version, tuple(parse_component(d) for d in docs.values()))
            assert manager.redeploy("app", archive).outcome == "Completed"
        assert calls == [("snapshot", (), {}), ("build_plan", "quiesce.lifecycle")] * 2

    def test_request_run(self, monkeypatch):
        calls = self.recorded_calls(monkeypatch)
        run = manager_module.run_scenario_with_request(
            load_application(read_fixture("demo_chain.json")),
            parse_scenario(read_fixture("demo_scenario.json")),
            manager_module.parse_request(read_fixture("demo_request.json")),
            until=120,
        )
        assert run.report is not None and run.report.outcome == "Completed"
        assert calls == [("snapshot", (), {}), ("build_plan", "quiesce.manager")]
