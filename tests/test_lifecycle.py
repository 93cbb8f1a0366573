from __future__ import annotations

import itertools
import json
import random
from dataclasses import replace

import pytest

import quiesce.automata as automata_module
import quiesce.depgraph as depgraph_module
import quiesce.lifecycle as lifecycle_module
import quiesce.manager as manager_module
import quiesce.model as model_module
from quiesce.automata import ServiceEffectAutomaton
from quiesce.engine import Engine
from quiesce.errors import IllegalTransition, Rejection, ValidationError
from quiesce.lifecycle import (
    DeploymentManager,
    ModuleArchive,
    ModuleState,
    archive_to_json,
    parse_archive,
)
from quiesce.metrics import compute_metrics
from quiesce.model import component_to_json, load_application, parse_component
from quiesce.workload import parse_scenario

from builders import app, auto, call_entry, client, comp, iface, op, scenario_doc, tree_components
from gen import generate_case

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
        assert manager.state_of("shop") is ModuleState.DISTRIBUTED
        manager.start("shop")
        assert manager.state_of("shop") is ModuleState.STARTED
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
            parse_scenario(scenario_doc([client("c1", call_entry(0, "S")), client("c2", call_entry(1, "S"))]))
        )
        engine.run(until=0)
        manager.stop("shop")
        assert manager.state_of("shop") is ModuleState.STOPPED
        assert engine.clock == 3  # stopped the instant the in-flight call completed
        denied = [(e.t, e.payload["reason"]) for e in engine.log if e.kind == "InvocationDenied"]
        assert (1, "clean-shutdown") in denied
        assert [e for e in engine.log if e.kind == "TxAbort"] == []

    def test_stop_then_start_again(self):
        manager = fresh_manager()
        manager.distribute(archive())
        manager.start("shop")
        manager.stop("shop")
        manager.start("shop")
        assert manager.state_of("shop") is ModuleState.STARTED

    def test_undeploy_requires_stopped_or_distributed(self):
        manager = fresh_manager()
        manager.distribute(archive())
        manager.start("shop")
        with pytest.raises(IllegalTransition):
            manager.undeploy("shop")
        manager.stop("shop")
        manager.undeploy("shop")
        assert manager.state_of("shop") is ModuleState.UNDEPLOYED
        assert "S" not in manager.engine.config.components()

    def test_every_operation_emits_one_terminal_progress_event(self):
        manager = fresh_manager()
        manager.distribute(archive())
        manager.start("shop")
        manager.redeploy("shop", archive(version=2, duration=7))
        with pytest.raises(ValidationError, match="unknown redeploy mode"):
            manager.redeploy("shop", archive(version=3, duration=9), mode="lenient")
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
            ("Stop", ["Running", "Completed"]),
            ("Undeploy", ["Running", "Completed"]),
        ]
        assert "lenient" in manager.events[-5].detail

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
                        assert manager.state_of("shop") is expected


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
        assert sig_before[0].operation_names() == frozenset({"work"})
        with pytest.raises(ValidationError, match="unknown redeploy mode"):
            manager.redeploy("shop", archive(version=2), mode="lenient")

    def test_weakened_mode_allows_safe_structural_diffs(self):
        manager = self.started_manager()
        report = manager.redeploy("shop", archive(version=2, extra_op=True), mode="weakened")
        assert report.outcome == "Completed"
        provided = manager.engine.config.components()["S"].provided[0]
        assert provided.operation_names() == frozenset({"work", "extra"})

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
        assert reordered != s and copy == t and copy is not t
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

        counts = {"dijkstra": 0, "reports": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        # the per-label path and the per-state table fill both run one Dijkstra per call
        monkeypatch.setattr(depgraph_module, "earliest_occurrence",
                            counting("dijkstra", depgraph_module.earliest_occurrence))
        monkeypatch.setattr(automata_module, "_earliest_from",
                            counting("dijkstra", automata_module._earliest_from))
        # every composition-check computation builds exactly one report
        monkeypatch.setattr(model_module, "ConsistencyReport", counting("reports", model_module.ConsistencyReport))

        pairs: dict[tuple[int, str], ServiceEffectAutomaton] = {}  # values keep the ids unique
        busy = 0
        real_build = manager_module.build_runtime_graph

        def recording(snapshot, window):
            nonlocal busy
            deployed = snapshot.config.components()
            for inst in snapshot.instances:
                if inst.idle:
                    for spec in deployed[inst.component].operations:
                        if spec.effect_automaton is not None:
                            pairs[(id(spec.effect_automaton), spec.effect_automaton.initial)] = spec.effect_automaton
                elif inst.cursor is not None:
                    busy += 1
                    pairs[(id(inst.cursor.automaton), inst.cursor.current)] = inst.cursor.automaton
            return real_build(snapshot, window)

        monkeypatch.setattr(manager_module, "build_runtime_graph", recording)

        docs = {c["name"]: c for c in components}
        rng = random.Random(6)
        redeploys = 20
        targets = []
        for k in range(redeploys):
            engine.run(until=30 + 25 * k)
            targets.append(f"C{rng.randrange(len(docs))}")
            docs[targets[-1]] = dict(docs[targets[-1]], version=docs[targets[-1]]["version"] + 1)
            archive = ModuleArchive("app", k + 2, tuple(parse_component(d) for d in docs.values()))
            assert manager.redeploy("app", archive).outcome == "Completed"
        assert [e.payload["component"] for e in engine.log if e.kind == "SwapApplied"] == targets
        assert busy > 0 and pairs
        assert counts["dijkstra"] <= len(pairs)
        assert counts["reports"] <= redeploys + 1


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
