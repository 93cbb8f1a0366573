from __future__ import annotations

import gc
import json
import math
import weakref
from dataclasses import replace
from types import SimpleNamespace

import pytest

import quiesce.model as model_module
from quiesce.engine import Engine
from quiesce.errors import (
    NameMismatch,
    Rejection,
    SnapshotStale,
    UnknownComponent,
    ValidationError,
    VersionError,
)
from quiesce.lifecycle import DeploymentManager, ModuleArchive
from quiesce.depgraph import build_static_graph
from quiesce.manager import (
    ACTIVATE_BARRIER,
    AWAIT_QUIESCENCE,
    EntityMigration,
    QosChange,
    Reason,
    ReconfigurationRequest,
    TargetChange,
    Verdict,
    _client_first_order,
    analyse,
    build_plan,
    check_mode,
    classify_structural_safety,
    execute_plan,
    parse_request,
    plan_ordering_problems,
    run_scenario_with_request,
    unchanged_remote_refs,
)
from quiesce.metrics import compute_metrics
from quiesce.model import ChangeKind, load_application, parse_component
from quiesce.workload import WorkloadScenario, parse_scenario

from builders import (
    app,
    appdoc,
    auto,
    call_entry,
    call_latencies,
    client,
    comp,
    iface,
    op,
    plan_span,
    scenario_doc,
    session_components,
    store_contents,
    tree_components,
)
from conftest import read_fixture
from gen import generate_case
from oracles import (
    CONFIGURATION_SCANS,
    check_carried_indexes,
    expected_shadow_contents,
    patch_configuration_scans,
    reference_client_first_order,
)


@pytest.fixture(autouse=True)
def carried_indexes_match_a_fresh_build(monkeypatch):
    """Every configuration ``with_component`` makes here holds the indexes a fresh build gives."""
    check_carried_indexes(monkeypatch)


def record_barriers(monkeypatch) -> list[str]:
    """The components ``Engine.activate_barrier`` is called on from now on; each barrier still goes up."""
    barriers: list[str] = []
    activate = Engine.activate_barrier

    def recording(engine, component):
        barriers.append(component)
        activate(engine, component)

    monkeypatch.setattr(Engine, "activate_barrier", recording)
    return barriers


def descriptor(kind: str, **kw):
    extra = {}
    if kind == "StatefulSession":
        extra["state_fields"] = ["a"]
    if kind == "Entity":
        extra["entity_schema"] = ["c"]
        extra["data_store"] = "db"
    if kind == "MessageDriven":
        extra["queue"] = "q"
    extra.update(kw)
    return parse_component(comp("X", kind=kind, access={"IX": "Remote"}, **extra))


class TestSafetyMatrix:
    """The component-type decision table, checked cell by cell."""

    CASES = [
        # (kind, change, refs, expected verdict)
        ("StatefulSession", ChangeKind.STRUCTURAL, frozenset(), Verdict.UNSAFE),
        ("StatefulSession", ChangeKind.STRUCTURAL, frozenset({"r"}), Verdict.UNSAFE),
        ("StatefulSession", ChangeKind.FUNCTIONAL, frozenset(), Verdict.SAFE),
        ("StatefulSession", ChangeKind.FUNCTIONAL, frozenset({"r"}), Verdict.SAFE),
        ("StatefulSession", ChangeKind.NON_FUNCTIONAL, frozenset(), Verdict.SAFE),
        ("StatefulSession", ChangeKind.NON_FUNCTIONAL, frozenset({"r"}), Verdict.SAFE),
        ("StatelessSession", ChangeKind.STRUCTURAL, frozenset(), Verdict.SAFE),
        ("StatelessSession", ChangeKind.STRUCTURAL, frozenset({"r"}), Verdict.UNSAFE),
        ("StatelessSession", ChangeKind.FUNCTIONAL, frozenset(), Verdict.SAFE),
        ("StatelessSession", ChangeKind.FUNCTIONAL, frozenset({"r"}), Verdict.SAFE),
        ("StatelessSession", ChangeKind.NON_FUNCTIONAL, frozenset(), Verdict.SAFE),
        ("StatelessSession", ChangeKind.NON_FUNCTIONAL, frozenset({"r"}), Verdict.SAFE),
        ("Entity", ChangeKind.STRUCTURAL, frozenset(), Verdict.SAFE_WITH_MIGRATION),
        ("Entity", ChangeKind.STRUCTURAL, frozenset({"r"}), Verdict.UNSAFE),
        ("Entity", ChangeKind.FUNCTIONAL, frozenset(), Verdict.SAFE),
        ("Entity", ChangeKind.FUNCTIONAL, frozenset({"r"}), Verdict.SAFE),
        ("Entity", ChangeKind.NON_FUNCTIONAL, frozenset(), Verdict.SAFE),
        ("Entity", ChangeKind.NON_FUNCTIONAL, frozenset({"r"}), Verdict.SAFE),
        ("MessageDriven", ChangeKind.STRUCTURAL, frozenset(), Verdict.SAFE_WITH_PAUSE),
        ("MessageDriven", ChangeKind.STRUCTURAL, frozenset({"r"}), Verdict.SAFE_WITH_PAUSE),
        ("MessageDriven", ChangeKind.FUNCTIONAL, frozenset(), Verdict.SAFE_WITH_PAUSE),
        ("MessageDriven", ChangeKind.FUNCTIONAL, frozenset({"r"}), Verdict.SAFE_WITH_PAUSE),
        ("MessageDriven", ChangeKind.NON_FUNCTIONAL, frozenset(), Verdict.SAFE_WITH_PAUSE),
        ("MessageDriven", ChangeKind.NON_FUNCTIONAL, frozenset({"r"}), Verdict.SAFE_WITH_PAUSE),
    ]

    @pytest.mark.parametrize("kind,change,refs,expected", CASES)
    def test_decision_table(self, kind, change, refs, expected):
        verdict = classify_structural_safety(
            descriptor(kind), change, refs, migration_available=True
        )
        assert verdict.verdict is expected
        if expected is Verdict.UNSAFE:
            assert verdict.reasons

    def test_unsafe_reasons_name_the_rule(self):
        stateful = classify_structural_safety(
            descriptor("StatefulSession"), ChangeKind.STRUCTURAL, frozenset(), True
        )
        assert stateful.reasons == (Reason.HAS_CONVERSATIONAL_STATE,)
        stateless = classify_structural_safety(
            descriptor("StatelessSession"), ChangeKind.STRUCTURAL, frozenset({"r"}), True
        )
        assert stateless.reasons == (Reason.UNCHANGED_REMOTE_CLIENT_REFS,)
        entity = classify_structural_safety(
            descriptor("Entity"), ChangeKind.STRUCTURAL, frozenset(), migration_available=False
        )
        assert entity.verdict is Verdict.UNSAFE
        assert entity.reasons == (Reason.SCHEMA_CHANGE_NEEDS_MIGRATION,)

    def test_stateful_functional_with_shape_change_is_unsafe(self):
        verdict = classify_structural_safety(
            descriptor("StatefulSession"), ChangeKind.FUNCTIONAL, frozenset(), True,
            state_shape_changed=True,
        )
        assert verdict.verdict is Verdict.UNSAFE

    def test_message_driven_reason_is_identity_free(self):
        verdict = classify_structural_safety(
            descriptor("MessageDriven"), ChangeKind.STRUCTURAL, frozenset({"r"}), False
        )
        assert verdict.reasons == (Reason.NO_CLIENT_VISIBLE_IDENTITY,)


class TestUnchangedRemoteRefs:
    def remote_pair(self):
        components = [
            comp("A", required=["IB"],
                 operations=[op("work", duration=2, automaton=auto([("q0", "IB", "work", 0, "q1")]))]),
            comp("B", provided=[iface("IB", "work")], access={"IB": "Remote"},
                 operations=[op("work", tx="Joins", duration=1)]),
        ]
        return app(components, wiring=[("A", "IB", "B")])

    def test_component_wired_over_remote_interface_counts(self):
        config = self.remote_pair()
        snapshot = Engine(config).snapshot()
        assert unchanged_remote_refs("B", snapshot) == frozenset({"A"})

    def test_clients_swapped_in_same_request_do_not_block(self):
        config = self.remote_pair()
        snapshot = Engine(config).snapshot()
        refs = unchanged_remote_refs("B", snapshot, changed={"A", "B"})
        assert refs == frozenset()

    def test_session_handles_count_and_local_wiring_does_not(self, chain_config):
        engine = Engine(chain_config)
        engine.load_scenario(
            parse_scenario(scenario_doc([
                {"id": "r1", "access": "Remote", "script": [{"at": 0, "home": "create", "component": "A"}]},
            ]))
        )
        engine.run(until=1)
        snapshot = engine.snapshot()
        assert unchanged_remote_refs("A", snapshot) == frozenset({"r1"})
        # B is only wired over a Local interface: nothing blocks it
        assert unchanged_remote_refs("B", snapshot) == frozenset()


class TestAnalyse:
    def test_functional_single_component(self, chain_config):
        new_c = parse_component(json.loads(read_fixture("demo_request.json"))["targets"][0]["descriptor"])
        request = ReconfigurationRequest(id="r", targets=(TargetChange("C", new_c),))
        assert analyse(request, chain_config) == [
            (chain_config.component("C"), new_c, ChangeKind.FUNCTIONAL)
        ]

    def test_pool_size_makes_an_in_place_redeploy_non_functional(self, chain_config):
        deployed = chain_config.component("B")
        request = ReconfigurationRequest(
            id="r", targets=(TargetChange("B", None),), qos_changes=(QosChange("B", 8),)
        )
        assert analyse(request, chain_config) == [
            (deployed, replace(deployed, version=deployed.version + 1), ChangeKind.NON_FUNCTIONAL)
        ]
        qos_only = ReconfigurationRequest(id="r", targets=(), qos_changes=(QosChange("B", 8),))
        assert analyse(qos_only, chain_config) == []

    def test_each_target_keeps_its_own_kind(self):
        config = load_application(appdoc([comp("S"), comp("T")]))
        request = ReconfigurationRequest(
            id="r",
            targets=(
                TargetChange("S", parse_component(comp("S", version=2, provided=[iface("IS", "work", "extra")],
                                                       operations=[op("work"), op("extra")]))),
                TargetChange("T", None),
            ),
        )
        assert [kind for _, _, kind in analyse(request, config)] == [
            ChangeKind.STRUCTURAL,
            ChangeKind.FUNCTIONAL,
        ]

    def test_in_place_targets_bump_their_version_in_request_order(self, chain_config):
        request = ReconfigurationRequest(
            id="r", targets=(TargetChange("C", None), TargetChange("A", None))
        )
        assert [(deployed.name, deployed.version, new.version) for deployed, new, _ in analyse(
            request, chain_config
        )] == [("C", 1, 2), ("A", 1, 2)]

    def test_unknown_target_rejected(self, chain_config):
        request = ReconfigurationRequest(id="r", targets=(TargetChange("Z", None),))
        with pytest.raises(UnknownComponent):
            analyse(request, chain_config)

    FAULTS = {
        "unknown target": (
            [("Z", None)], [], UnknownComponent, "target 'Z' is not deployed",
        ),
        "unknown qos component": (
            [("C", None)], [("Z", 2)], UnknownComponent, "qos change names unknown component 'Z'",
        ),
        "stale version": (
            [("C", 1)], [], VersionError, "'C': new version 1 not greater than 1",
        ),
        "descriptor of another component": (
            [("C", "B")], [], NameMismatch, "cannot diff 'C' against 'B'",
        ),
        "first faulty target wins": (
            [("C", 1), ("Z", None)], [("Y", 2)], VersionError, "'C': new version 1 not greater than 1",
        ),
        "first faulty target wins, either way round": (
            [("Z", None), ("C", 1)], [], UnknownComponent, "target 'Z' is not deployed",
        ),
    }

    @staticmethod
    def faulty_request(config, targets, qos) -> ReconfigurationRequest:
        """Each target as (component, None | a version of it | the deployed component whose descriptor it gets)."""

        def descriptor(name, spec):
            if spec is None:
                return None
            if isinstance(spec, int):
                return replace(config.component(name), version=spec)
            return config.component(spec)

        return ReconfigurationRequest(
            id="r",
            targets=tuple(TargetChange(name, descriptor(name, spec)) for name, spec in targets),
            qos_changes=tuple(QosChange(name, size) for name, size in qos),
        )

    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_planning_and_strict_mode_raise_the_same_error(self, chain_config, fault):
        targets, qos, error, text = self.FAULTS[fault]
        request = self.faulty_request(chain_config, targets, qos)
        snapshot = Engine(chain_config).snapshot()
        for attempt in (
            lambda: build_plan(request, snapshot),
            lambda: check_mode(request, chain_config, "strict"),
        ):
            with pytest.raises(error) as info:
                attempt()
            assert type(info.value) is error
            assert str(info.value) == text


class TestQosChange:
    def test_pool_size_below_one_is_refused_before_planning(self):
        for size in (0, -1):
            with pytest.raises(ValidationError, match=r"qos change for 'B': pool_size must be >= 1"):
                QosChange("B", size)
        doc = json.loads(read_fixture("demo_request.json"))
        doc["qos_changes"] = [{"component": "B", "pool_size": 0}]
        with pytest.raises(ValidationError, match=r"qos change for 'B': pool_size must be >= 1"):
            parse_request(json.dumps(doc))


class TestBuildPlan:
    def functional_c_request(self, at: int = 0) -> ReconfigurationRequest:
        new_c = parse_component(json.loads(read_fixture("demo_request.json"))["targets"][0]["descriptor"])
        return ReconfigurationRequest(id="swap-c", targets=(TargetChange("C", new_c),), requested_at=at)

    def test_plan_orders_barriers_clients_first(self, chain_config):
        engine = Engine(chain_config)
        plan = build_plan(self.functional_c_request(), engine.snapshot())
        assert plan_ordering_problems(plan) == []
        activates = [s.component for s in plan.steps if s.kind == "ActivateBarrier"]
        awaits = [s.component for s in plan.steps if s.kind == "AwaitQuiescence"]
        releases = [s.component for s in plan.steps if s.kind == "ReleaseBarrier"]
        assert activates == ["A", "B", "C"]  # users before providers
        assert awaits == ["A", "B", "C"]
        assert releases == ["C", "B", "A"]  # providers released first
        # every barrier goes up before any quiescence is awaited
        kinds = [s.kind for s in plan.steps[:6]]
        assert kinds == ["ActivateBarrier"] * 3 + ["AwaitQuiescence"] * 3
        assert plan.affected == frozenset({"A", "B", "C"})
        assert (plan.steps[-1].kind, plan.steps[-1].component) == ("ReleaseBarrier", "A")

    def test_affected_stays_inside_ancestor_closure(self, diamond_config):
        engine = Engine(diamond_config)
        new_b = parse_component(
            comp("B", version=2, provided=[iface("IB", "left")], required=["ID"],
                 operations=[op("left", tx="Joins", duration=4,
                                automaton=auto([("q0", "ID", "store", 1, "q1")]))],
                 access={"IB": "Local"})
        )
        request = ReconfigurationRequest(id="r", targets=(TargetChange("B", new_b),))
        plan = build_plan(request, engine.snapshot())
        assert plan.affected <= {"A", "B"}
        assert "C" not in plan.affected and "D" not in plan.affected

    def test_stale_snapshot_rejected(self, chain_config):
        engine = Engine(chain_config)
        with pytest.raises(SnapshotStale):
            build_plan(self.functional_c_request(at=5), engine.snapshot())

    def test_structural_stateful_target_rejected(self):
        config = app(
            [comp("S", kind="StatefulSession", state_fields=["a"], operations=[op("work", duration=2)])]
        )
        new = parse_component(
            comp("S", version=2, kind="StatefulSession", state_fields=["a", "b"],
                 provided=[iface("IS", "work")], operations=[op("work", duration=2)])
        )
        request = ReconfigurationRequest(id="r", targets=(TargetChange("S", new),))
        engine = Engine(config)
        with pytest.raises(Rejection) as info:
            build_plan(request, engine.snapshot())
        verdicts = {v.component: v for v in info.value.verdicts}
        assert verdicts["S"].verdict is Verdict.UNSAFE
        assert Reason.HAS_CONVERSATIONAL_STATE in verdicts["S"].reasons

    def test_qos_only_plan_has_no_barriers(self, chain_config):
        engine = Engine(chain_config)
        request = ReconfigurationRequest(
            id="r", targets=(), qos_changes=(QosChange("B", 8),), requested_at=0
        )
        plan = build_plan(request, engine.snapshot())
        kinds = [s.kind for s in plan.steps]
        assert kinds == ["SetPoolSize"]
        assert plan.affected == frozenset()

    def test_whole_app_blocking_barricades_everything(self, chain_config):
        engine = Engine(chain_config)
        plan = build_plan(self.functional_c_request(), engine.snapshot(), blocking="whole-app")
        assert plan.affected == frozenset({"A", "B", "C"})

    def test_message_driven_target_gets_queue_pause(self):
        config = app(
            [
                comp("M", kind="MessageDriven", provided=[iface("IM", "onMessage")],
                     operations=[op("onMessage", duration=2)], queue="q"),
            ],
            queues=["q"],
        )
        new = parse_component(
            comp("M", version=2, kind="MessageDriven", provided=[iface("IM", "onMessage")],
                 operations=[op("onMessage", duration=1)], queue="q")
        )
        engine = Engine(config)
        request = ReconfigurationRequest(id="r", targets=(TargetChange("M", new),))
        plan = build_plan(request, engine.snapshot())
        kinds = [(s.kind, s.queue) for s in plan.steps if s.queue]
        assert ("PauseQueue", "q") in kinds and ("ResumeQueue", "q") in kinds
        assert plan_ordering_problems(plan) == []


class TestClientFirstOrder:
    """The heap order equals the re-sorting reference, and its work grows as n log n."""

    @staticmethod
    def barrier_order(plan) -> list[str]:
        return [s.component for s in plan.steps if s.kind == ACTIVATE_BARRIER]

    @pytest.mark.parametrize("seed", range(1, 101))
    def test_generated_cases_minimal_and_whole_app(self, seed):
        case = generate_case(seed)
        scenario = parse_scenario(case.scenario_text)
        engine = Engine(load_application(case.config_text), seed=scenario.seed)
        engine.load_scenario(scenario)
        static = build_static_graph(engine.config)
        planned = 0
        for t in (0, 60, 150):
            engine.run(until=t)
            snapshot = engine.snapshot()
            for name in sorted(engine.config.components()):
                request = ReconfigurationRequest("r", (TargetChange(name, None),), requested_at=snapshot.time)
                for blocking in ("minimal", "whole-app"):
                    try:
                        plan = build_plan(request, snapshot, blocking=blocking)
                    except Rejection:
                        continue
                    planned += 1
                    assert self.barrier_order(plan) == reference_client_first_order(static, plan.affected)
        assert planned

    def test_whole_app_order_of_a_1023_component_tree(self):
        components, wiring, containers = tree_components(10)
        config = app(components, wiring=wiring, containers=containers)
        static = build_static_graph(config)
        members = frozenset(config.components())
        order = _client_first_order(static, members)
        assert order == reference_client_first_order(static, members)
        assert order[0] == "C0" and len(order) == 1023

    def test_wired_cycle_falls_back_to_the_smallest_name_left(self):
        # X uses B; B -> C -> D -> B is a cycle; D also uses E, which no one else reaches
        config = app(
            [
                comp("X", provided=[iface("IX", "go")], required=["IB"]),
                comp("B", provided=[iface("IB", "go")], required=["IC"]),
                comp("C", provided=[iface("IC", "go")], required=["ID"]),
                comp("D", provided=[iface("ID", "go")], required=["IB", "IE"]),
                comp("E", provided=[iface("IE", "go")]),
            ],
            wiring=[("X", "IB", "B"), ("B", "IC", "C"), ("C", "ID", "D"), ("D", "IB", "B"), ("D", "IE", "E")],
        )
        static = build_static_graph(config)
        for members in (frozenset("XBCDE"), frozenset("BCDE"), frozenset("BCD"), frozenset("CDE")):
            assert _client_first_order(static, members) == reference_client_first_order(static, members)
        assert _client_first_order(static, frozenset("XBCDE")) == ["X", "B", "C", "D", "E"]

    def test_comparisons_grow_as_n_log_n(self):
        """A name that counts its comparisons: the heap and the sorts are the only places names are ordered."""

        class Name(str):
            comparisons = 0

            def __lt__(self, other):
                Name.comparisons += 1
                return str.__lt__(self, other)

            def __gt__(self, other):
                Name.comparisons += 1
                return str.__gt__(self, other)

        for depth in (7, 10):
            n = 2**depth - 1
            names = [Name(f"C{i}") for i in range(n)]
            static = SimpleNamespace(callers={names[i]: [names[(i - 1) // 2]] for i in range(1, n)})
            Name.comparisons = 0
            order = _client_first_order(static, frozenset(names))
            assert order[0] == "C0" and len(order) == n
            # at the re-sorting order the 1,023-member tree took about 80 n log2 n
            assert Name.comparisons <= 3 * n * math.log2(n), (n, Name.comparisons)


class TestExecutePlan:
    def test_idle_system_downtime_is_swap_cost_only(self, chain_config):
        engine = Engine(chain_config)
        request = TestBuildPlan().functional_c_request()
        plan = build_plan(request, engine.snapshot())
        report = execute_plan(plan, engine)
        assert report.outcome == "Completed"
        assert report.downtime == {"A": 10, "B": 10, "C": 10}
        assert engine.config.components()["C"].version == 2

    def test_swaps_install_the_checked_target_configuration(self, chain_config, monkeypatch):
        engine = Engine(chain_config)
        deployed = chain_config.components()
        request = ReconfigurationRequest(
            id="r", targets=tuple(TargetChange(n, replace(deployed[n], version=2)) for n in "BC")
        )
        plan = build_plan(request, engine.snapshot())
        assert execute_plan(plan, engine).outcome == "Completed"
        assert engine.config is plan.target
        assert {n: d.version for n, d in engine.config.components().items()} == {"A": 1, "B": 2, "C": 2}
        # the next plan's static graph reads the report the executor's check cached
        checked, real = [], model_module._check_composition
        monkeypatch.setattr(model_module, "_check_composition", lambda config, names=None: checked.append(config)
                            or real(config, names))
        follow_up = ReconfigurationRequest(id="r2", targets=(TargetChange("A", None),), requested_at=engine.clock)
        build_plan(follow_up, engine.snapshot())
        assert not any(config is engine.config for config in checked)

    def test_finished_plan_is_not_kept_alive_by_its_drain_deadline(self, chain_config):
        engine = Engine(chain_config)
        plan = build_plan(TestBuildPlan().functional_c_request(), engine.snapshot())
        assert execute_plan(plan, engine).outcome == "Completed"
        finished, target = weakref.ref(plan), weakref.ref(plan.target)
        del plan
        gc.collect()
        assert finished() is None
        assert engine.config is target()  # the swapped-in configuration stays, as the engine's own
        engine.run()  # the deadline still fires, after the plan is gone
        assert {name: engine.barrier_state(name) for name in "ABC"} == dict.fromkeys("ABC", "Open")

    def test_in_flight_transaction_adds_its_remainder_to_downtime(self):
        config = app([comp("S", operations=[op("work", duration=10)])])
        engine = Engine(config)
        engine.load_scenario(parse_scenario(scenario_doc([client("c", call_entry(0, "S"))])))
        engine.run(until=5)
        new = parse_component(comp("S", version=2, operations=[op("work", duration=10)]))
        request = ReconfigurationRequest(id="r", targets=(TargetChange("S", new),), requested_at=5)
        plan = build_plan(request, engine.snapshot())
        report = execute_plan(plan, engine)
        assert report.outcome == "Completed"
        assert report.downtime == {"S": 15}  # 5 remaining + 10 swap cost

    def test_drain_timeout_rolls_back_completely(self):
        config = app([comp("S", operations=[op("work", duration=900)])])
        engine = Engine(config, drain_timeout=50)
        engine.load_scenario(parse_scenario(scenario_doc([client("c", call_entry(0, "S"))])))
        engine.run(until=5)
        version_before = engine.config.version
        new = parse_component(comp("S", version=2, operations=[op("work", duration=1)]))
        request = ReconfigurationRequest(id="r", targets=(TargetChange("S", new),), requested_at=5)
        plan = build_plan(request, engine.snapshot())
        report = execute_plan(plan, engine)
        assert report.outcome == "DrainTimeout"
        assert [e for e in engine.log if e.kind == "SwapApplied"] == []
        assert engine.config.version == version_before
        assert engine.config.components()["S"].version == 1
        assert engine.containers["S"].barrier_mode == "Open"

    def test_entity_migration_matches_replay_oracle(self):
        config = app(
            [
                comp("E", kind="Entity", provided=[iface("IE", "save")],
                     operations=[op("save", duration=2)],
                     entity_schema=["c1", "c2"], data_store="db"),
            ],
            data_stores=[
                {"name": "db", "schema": ["c1", "c2"]},
                {"name": "db2", "schema": ["k1", "c2"]},
            ],
        )
        engine = Engine(config)
        engine.load_scenario(
            parse_scenario(
                scenario_doc(
                    [
                        client("u1", {"at": 0, "call": {"component": "E", "interface": "IE", "operation": "save"}},
                               {"at": 60, "call": {"component": "E", "interface": "IE", "operation": "save"}}),
                        client("u2", {"at": 1, "call": {"component": "E", "interface": "IE", "operation": "save"}}),
                    ]
                )
            )
        )
        engine.run(until=10)
        new = parse_component(
            comp("E", version=2, kind="Entity", provided=[iface("IE", "save")],
                 operations=[op("save", duration=2)],
                 entity_schema=["k1", "c2"], data_store="db2")
        )
        request = ReconfigurationRequest(
            id="migrate-e",
            targets=(TargetChange("E", new),),
            entity_migration=(EntityMigration("E", "db2", (("c1", "k1"), ("c2", "c2"))),),
            requested_at=10,
        )
        plan = build_plan(request, engine.snapshot())
        report = execute_plan(plan, engine)
        assert report.outcome == "Completed"
        engine.run(until=100)  # the post-swap write at t=60 lands in the shadow store
        expected = expected_shadow_contents(engine.log.events, {"c1": "k1", "c2": "c2"}, "db", "db2")
        assert store_contents(engine, "db2") == expected
        assert engine.containers["E"].bound_store == "db2"
        # row counts matched at sync time: both stores held the same keys
        synced = next(e for e in engine.log if e.kind == "StoreSynced")
        assert synced.payload["rows"] == 2

    def test_broken_target_is_rejected_before_any_barrier_goes_up(self, chain_config):
        # weakened-mode structural change that removes an operation a caller needs
        gutted = parse_component(
            comp("C", version=2, provided=[iface("IC", "other")],
                 operations=[op("other", tx="Joins", duration=1)], access={"IC": "Local"})
        )
        engine = Engine(chain_config)
        request = ReconfigurationRequest(id="r", targets=(TargetChange("C", gutted),))
        plan = build_plan(request, engine.snapshot())
        report = execute_plan(plan, engine)
        assert report.outcome == "Rejected"
        assert any(f.kind == "signature-mismatch" for f in report.findings)
        kinds = {e.kind for e in engine.log}
        assert "BarrierActivated" not in kinds and "SwapApplied" not in kinds
        assert engine.config is chain_config
        assert {name: engine.barrier_state(name) for name in "ABC"} == dict.fromkeys("ABC", "Open")

    def test_held_call_to_removed_operation_is_an_orphan_finding(self):
        # weakened-mode structural swap drops `extra` while a call to it waits at the barrier
        config = app([comp("S", provided=[iface("IS", "work", "extra")],
                           operations=[op("work", duration=10), op("extra", duration=1)])])
        scenario = parse_scenario(scenario_doc([
            client("c1", call_entry(0, "S")),
            client("c2", call_entry(3, "S", operation="extra", interface="IS")),
        ]))
        gutted = parse_component(comp("S", version=2, operations=[op("work", duration=10)]))
        request = ReconfigurationRequest(id="r", targets=(TargetChange("S", gutted),), requested_at=2)
        result = run_scenario_with_request(config, scenario, request, 100)
        report = result.report
        assert report.outcome == "Rejected"
        assert [(f.kind, f.subject) for f in report.findings] == [("orphaned-held-call", "S")]
        assert "c2:0" in report.findings[0].detail


class TestSwapWaitsOnReopenedDrain:
    """Plans whose swap finds the drain re-opened: the client's AwaitQuiescence is dropped.

    A (StartsNew, duration 12) calls D (8 units, outside the barricade) and
    then C; the request at t=2 targets C.  C closes at 2, so the swap starts
    at once, and A's joining call re-opens C's drain at 8 while the swap's
    cost still runs.  A's transaction commits at 21.
    """

    def engine(self, drain_timeout: int = 1000) -> Engine:
        a_auto = auto([("q0", "ID", "work", 0, "q1"), ("q1", "IC", "work", 0, "q2")])
        config = app(
            [
                comp("A", required=["ID", "IC"], operations=[op("work", duration=12, automaton=a_auto)]),
                comp("D", provided=[iface("ID", "work")], operations=[op("work", tx="Joins", duration=8)]),
                comp("C", provided=[iface("IC", "work")], operations=[op("work", tx="Joins", duration=1)]),
            ],
            wiring=[("A", "ID", "D"), ("A", "IC", "C")],
        )
        engine = Engine(config, drain_timeout=drain_timeout)
        engine.load_scenario(parse_scenario(scenario_doc([client("c", call_entry(0, "A"))])))
        engine.run(until=2)
        return engine

    def plan(self, engine: Engine, drop_client_await: bool = True):
        version = engine.config.components()["C"].version + 1
        new_c = parse_component(comp("C", version=version, provided=[iface("IC", "work")],
                                     operations=[op("work", tx="Joins", duration=1)]))
        request = ReconfigurationRequest(
            id=f"swap-c@{engine.clock}", targets=(TargetChange("C", new_c),), requested_at=engine.clock
        )
        plan = build_plan(request, engine.snapshot())
        assert plan.affected == frozenset({"A", "C"})
        if drop_client_await:
            steps = tuple(s for s in plan.steps if (s.kind, s.component) != (AWAIT_QUIESCENCE, "A"))
            plan = replace(plan, steps=steps)
        return plan

    def test_swap_waits_until_the_reopened_drain_closes(self):
        engine = self.engine()
        report = execute_plan(self.plan(engine), engine)
        assert report.outcome == "Completed"
        events = [(e.t, e.kind, e.payload.get("component")) for e in engine.log]
        assert (2, "QuiescenceReached", "C") in events
        assert (8, "InvocationStart", "C") in events  # A's joining call re-opens the drain
        swapped = [t for t, kind, _ in events if kind == "SwapApplied"]
        committed = [t for t, kind, _ in events if kind == "TxCommit"]
        assert swapped == committed == [21]
        running = set()
        for e in engine.log:
            if e.kind == "InvocationStart":
                running.add(e.payload["id"])
            elif e.kind == "InvocationEnd":
                running.discard(e.payload["id"])
            elif e.kind == "SwapApplied":
                break
        assert running == set()
        assert engine.config.components()["C"].version == 2

    def test_timeout_while_the_swap_waits_abandons_the_plan(self):
        engine = self.engine(drain_timeout=11)
        plan = self.plan(engine)
        report = execute_plan(plan, engine)
        assert report.outcome == "DrainTimeout"
        assert report.detail == "drain timeout waiting for 'A'"
        assert [e for e in engine.log if e.kind == "SwapApplied"] == []
        assert {name: engine.barrier_state(name) for name in "ACD"} == dict.fromkeys("ACD", "Open")
        assert engine.config.components()["C"].version == 1
        # releasing the barriers dropped the swap's wake-up, so nothing keeps the plan alive
        abandoned = weakref.ref(plan)
        del plan
        gc.collect()
        assert abandoned() is None

    def test_abandoned_plan_ignores_its_stale_wake_up(self):
        engine = self.engine(drain_timeout=11)
        first = execute_plan(self.plan(engine), engine)
        before = first.to_json()
        engine.run(until=30)  # A commits at 21; the first plan's swap wake-up went with its barriers
        second = execute_plan(self.plan(engine, drop_client_await=False), engine)
        assert second.outcome == "Completed"
        assert first.to_json() == before
        assert [(e.t, e.payload["component"]) for e in engine.log if e.kind == "SwapApplied"] == [(40, "C")]
        assert engine.config.components()["C"].version == 2


class TestScenarioWithRequest:
    def two_chains(self):
        # two disjoint two-tier chains; the front tiers do 3 units of external
        # prep before their backend call, so they are mid-protocol at t=2
        front_auto = lambda iface_name: auto(
            [("q0", "ILog", "note", 3, "q1"), ("q1", iface_name, "work", 1, "q2")]
        )
        components = [
            comp("A", required=["ILog", "IB"],
                 operations=[op("work", duration=6, automaton=front_auto("IB"))]),
            comp("B", provided=[iface("IB", "work")], operations=[op("work", tx="Joins", duration=2)]),
            comp("X", required=["ILog", "IY"],
                 operations=[op("work", duration=6, automaton=front_auto("IY"))]),
            comp("Y", provided=[iface("IY", "work")], operations=[op("work", tx="Joins", duration=2)]),
        ]
        return app(
            components,
            wiring=[("A", "ILog", None), ("A", "IB", "B"), ("X", "ILog", None), ("X", "IY", "Y")],
        )

    def swap_b_request(self, at: int) -> ReconfigurationRequest:
        new_b = parse_component(
            comp("B", version=2, provided=[iface("IB", "work")],
                 operations=[op("work", tx="Joins", duration=2)])
        )
        return ReconfigurationRequest(id="swap-b", targets=(TargetChange("B", new_b),), requested_at=at)

    def scenario(self) -> WorkloadScenario:
        return parse_scenario(
            scenario_doc(
                [
                    client("s1", call_entry(0, "A"), call_entry(40, "A")),
                    client("s2", call_entry(0, "X"), call_entry(10, "X"), call_entry(40, "X")),
                ],
                seed=7,
            )
        )

    def test_unaffected_sessions_keep_identical_latencies(self):
        config = self.two_chains()
        from quiesce.engine import run as engine_run

        control_log, _ = engine_run(config, self.scenario(), until=200)
        result = run_scenario_with_request(
            self.two_chains(), self.scenario(), self.swap_b_request(at=2), until=200
        )
        assert result.report is not None and result.report.outcome == "Completed"
        affected = result.report.affected
        assert affected == frozenset({"A", "B"})
        outside = {
            session for session, comps in session_components(result.log.events).items()
            if not comps & affected
        }
        assert "s2" in outside
        assert call_latencies(result.log.events, outside) == call_latencies(
            control_log.events, outside
        )
        metrics = compute_metrics(result.log.events)
        assert metrics.invalidated_sessions == 0
        assert metrics.aborted_transactions == 0

    def test_minimal_blocking_never_waits_longer_than_whole_app(self):
        minimal = run_scenario_with_request(
            self.two_chains(), self.scenario(), self.swap_b_request(at=2), until=200,
            blocking="minimal",
        )
        whole = run_scenario_with_request(
            self.two_chains(), self.scenario(), self.swap_b_request(at=2), until=200,
            blocking="whole-app",
        )
        m_minimal = compute_metrics(minimal.log.events)
        m_whole = compute_metrics(whole.log.events)
        total_min = m_minimal.held_count * m_minimal.held_mean_wait
        total_whole = m_whole.held_count * m_whole.held_mean_wait
        assert total_min <= total_whole
        assert total_min < total_whole  # X/Y chain only blocks under whole-app
        assert set(minimal.report.affected) < set(self.two_chains().components())

    def test_both_forms_give_one_report(self, chain_config):
        """The demo request, and the same change as an archive redeployed on a running engine."""
        scenario = parse_scenario(read_fixture("demo_scenario.json"))
        request = parse_request(read_fixture("demo_request.json"))
        at = request.requested_at  # nothing is dispatched at 8: both forms plan in the same state
        by_request = run_scenario_with_request(chain_config, scenario, request, until=300)

        engine = Engine(chain_config, seed=scenario.seed)
        engine.load_scenario(scenario)
        deployment = DeploymentManager(engine)
        components = chain_config.components()
        deployment.adopt_running("demo", ModuleArchive("demo", 1, tuple(components.values())))
        engine.run(until=at)
        components["C"] = request.targets[0].descriptor
        by_archive = deployment.redeploy("demo", ModuleArchive("demo", 2, tuple(components.values())))

        first, second = by_request.report.to_json(), by_archive.to_json()
        assert (first.pop("request"), second.pop("request")) == ("swap-C-v2", "redeploy:demo:2")
        assert first == second
        assert (first["outcome"], first["downtime"]) == ("Completed", {"A": 25, "B": 25, "C": 25})

    def test_a_report_folds_its_own_span(self):
        """Two calls held behind S's barrier replay into a pool of one: the second waits past the plan."""
        config = app([comp("S", operations=[op("work", duration=10)])],
                     containers=[{"hosted_component": "S", "pool_size": 1}])
        scenario = parse_scenario(scenario_doc(
            [client("c1", call_entry(0, "S")), client("c2", call_entry(3, "S")), client("c3", call_entry(4, "S"))]
        ))
        request = ReconfigurationRequest(id="r", targets=(TargetChange("S", None),), requested_at=2)
        run = run_scenario_with_request(config, scenario, request, until=100)
        events = run.log.events
        own = compute_metrics(plan_span(events))
        assert [(e.t, e.payload["id"]) for e in events if e.kind == "InvocationStart"] == [
            (0, "c1:0"), (20, "c2:0"), (30, "c3:0"),
        ]
        assert (run.report.held_count, run.report.held_max_wait) == (own.held_count, own.held_max_wait) == (2, 17)
        assert run.report.downtime == own.downtime == {"S": 18}
        assert compute_metrics(events).held_max_wait == 26  # c3 waits for the instance until 30

    def test_rejected_request_reports_verdicts_and_touches_nothing(self, monkeypatch):
        config = app(
            [comp("S", kind="StatefulSession", state_fields=["a"], operations=[op("work", duration=2)])]
        )
        new = parse_component(
            comp("S", version=2, kind="StatefulSession", state_fields=["a", "b"],
                 provided=[iface("IS", "work")], operations=[op("work", duration=2)])
        )
        request = ReconfigurationRequest(id="r", targets=(TargetChange("S", new),), requested_at=1)
        barriers = record_barriers(monkeypatch)
        with pytest.raises(Rejection) as refused:
            run_scenario_with_request(config, WorkloadScenario(), request, until=50)
        assert any(v.verdict is Verdict.UNSAFE for v in refused.value.verdicts)
        assert barriers == []

    def test_strict_mode_refuses_a_structural_request_before_any_barrier(self, chain_config, monkeypatch):
        new_c = parse_component(
            comp("C", version=2, provided=[iface("IC", "backWork", "extra")],
                 operations=[op("backWork", tx="Joins", duration=3), op("extra", duration=1)],
                 access={"IC": "Local"})
        )
        request = ReconfigurationRequest(id="r", targets=(TargetChange("C", new_c),), requested_at=8)
        scenario = parse_scenario(read_fixture("demo_scenario.json"))
        barriers = record_barriers(monkeypatch)
        with pytest.raises(Rejection, match="strict mode: .*structural diffs on \\['C'\\]"):
            run_scenario_with_request(chain_config, scenario, request, until=300, mode="strict")
        assert barriers == []
        weakened = run_scenario_with_request(chain_config, scenario, request, until=300)
        assert weakened.report.outcome == "Completed"
        assert barriers == ["A", "B", "C"]

    @pytest.mark.parametrize("at", [-1, 301])
    def test_a_request_instant_outside_the_run_is_refused_before_the_engine_is_built(
        self, chain_config, monkeypatch, at
    ):
        request = ReconfigurationRequest(id="late", targets=(TargetChange("C", None),), requested_at=at)
        monkeypatch.setattr(Engine, "__init__", lambda *args, **kwargs: pytest.fail("engine built"))
        with pytest.raises(ValidationError, match=f"request 'late' at {at} is outside the run \\(0..300\\)"):
            run_scenario_with_request(chain_config, WorkloadScenario(), request, until=300)

    def test_lookups_do_not_rescan_the_configuration_per_invocation(self, monkeypatch):
        """Each configuration scans its leaves and its wires once, however many calls it routes."""
        n = 63  # binary tree: C_i calls C_{2i+1} then C_{2i+2}
        components = []
        for i in range(n):
            kids = [k for k in (2 * i + 1, 2 * i + 2) if k < n]
            automaton = auto([(f"q{j}", f"IC{k}", "work", 0, f"q{j + 1}") for j, k in enumerate(kids)]) if kids else None
            components.append(
                comp(f"C{i}", required=[f"IC{k}" for k in kids],
                     operations=[op("work", tx="StartsNew" if i == 0 else "Joins", duration=1, automaton=automaton)])
            )
        wiring = [(f"C{i}", f"IC{k}", f"C{k}") for i in range(n) for k in (2 * i + 1, 2 * i + 2) if k < n]
        scenario = parse_scenario(
            scenario_doc([client(f"s{c}", *(call_entry(t, "C0") for t in (0, 10, 20))) for c in range(4)], seed=3)
        )
        new_c5 = parse_component(
            comp("C5", version=2, required=["IC11", "IC12"],
                 operations=[op("work", tx="Joins", duration=2,
                                automaton=auto([("q0", "IC11", "work", 0, "q1"), ("q1", "IC12", "work", 0, "q2")]))])
        )
        request = ReconfigurationRequest(id="swap-c5", targets=(TargetChange("C5", new_c5),), requested_at=15)

        calls = dict.fromkeys(CONFIGURATION_SCANS, 0)

        def counting(name, original):
            def counted(config):
                calls[name] += 1
                return original(config)

            return counted

        patch_configuration_scans(monkeypatch, counting)
        config = app(components, wiring=wiring)
        run = run_scenario_with_request(config, scenario, request, until=200)

        assert run.report.outcome == "Completed"
        assert sum(1 for e in run.log if e.kind == "InvocationStart") >= 200
        # one pass of each kind for the loaded configuration, one for the oracle's fresh build of the swapped one
        assert calls["_leaves"] <= 2 and calls["_wires_by_requirement"] <= 2, calls
        # components() copies the leaf map once each for loading, the engine and the scenario check
        assert calls["components"] <= 3, calls


class TestRequestDocuments:
    def test_round_trip_with_inline_descriptor(self):
        request = parse_request(read_fixture("demo_request.json"))
        assert request.id == "swap-C-v2"
        assert request.requested_at == 8
        assert request.targets[0].component == "C"
        assert request.targets[0].descriptor.version == 2

    def test_descriptor_file_reference(self, tmp_path):
        new_c = json.loads(read_fixture("demo_request.json"))["targets"][0]["descriptor"]
        (tmp_path / "c2.json").write_text(json.dumps(new_c))
        doc = json.dumps(
            {"id": "r", "requested_at": 0, "targets": [{"component": "C", "descriptor_file": "c2.json"}]}
        )
        request = parse_request(doc, file_loader=lambda rel: (tmp_path / rel).read_text())
        assert request.targets[0].descriptor.name == "C"

    def test_unknown_keys_rejected(self):
        from quiesce.errors import ParseError

        with pytest.raises(ParseError):
            parse_request('{"targets": [], "qos_changes": [], "surprise": 1}')

    def test_empty_request_rejected(self):
        from quiesce.errors import ValidationError

        with pytest.raises(ValidationError):
            ReconfigurationRequest(id="r", targets=(), qos_changes=())

    def test_component_named_twice_is_refused_before_planning(self):
        doc = json.loads(read_fixture("demo_request.json"))
        doc["requested_at"] = 0
        doc["targets"].append({"component": "C"})
        with pytest.raises(ValidationError, match=r"^request targets name component 'C' twice$"):
            parse_request(json.dumps(doc))
        # one target and one QoS change may name the same component
        ReconfigurationRequest(id="r", targets=(TargetChange("C", None),), qos_changes=(QosChange("C", 2),))
