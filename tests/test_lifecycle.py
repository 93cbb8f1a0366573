from __future__ import annotations

import itertools
import json

import pytest

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
from quiesce.model import load_application, parse_component
from quiesce.workload import parse_scenario

from builders import call_entry, client, comp, iface, op, scenario_doc

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
