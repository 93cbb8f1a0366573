from __future__ import annotations

import json

import pytest

from quiesce.depgraph import (
    ReconfigurationWindow,
    affected_set,
    build_runtime_graph,
    build_static_graph,
    graph_to_dot,
    graph_to_json,
)
from quiesce.engine import Engine
from quiesce.errors import InconsistentConfiguration, SnapshotStale, UnknownTarget
from quiesce.model import load_application, parse_component
from quiesce.snapshot import load_snapshot
from quiesce.workload import parse_scenario

from builders import app, auto, call_entry, client, comp, iface, op, scenario_doc, tree_components
from conftest import read_fixture
from gen import generate_case
from oracles import forward_simulation_affected, reference_runtime_graph


def snap(app_name: str, snap_name: str, config):
    return load_snapshot(read_fixture(snap_name), config)


class TestStaticGraph:
    def test_chain_edges(self, chain_config):
        graph = build_static_graph(chain_config)
        assert graph.nodes == ("A", "B", "C")
        assert [(r, p) for r, p, _ in graph.edges] == [("A", "B"), ("B", "C")]

    def test_single_component_graph(self):
        graph = build_static_graph(app([comp("S")]))
        assert graph.nodes == ("S",)
        assert graph.edges == ()

    def test_diamond_has_four_edges(self, diamond_config):
        graph = build_static_graph(diamond_config)
        assert len(graph.edges) == 4
        assert {(r, p) for r, p, _ in graph.edges} == {
            ("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"),
        }

    def test_inconsistent_configuration_rejected(self, chain_config):
        gutted = parse_component(
            comp("C", version=2, provided=[iface("IC", "other")],
                 operations=[op("other", tx="Joins", duration=1)], access={"IC": "Local"})
        )
        with pytest.raises(InconsistentConfiguration):
            build_static_graph(chain_config.with_component(gutted))

    def test_ancestors_of(self, diamond_config):
        graph = build_static_graph(diamond_config)
        assert graph.ancestors_of(frozenset({"D"})) == frozenset({"A", "B", "C"})
        assert graph.ancestors_of(frozenset({"A"})) == frozenset()


class TestRuntimeGraph:
    def test_stale_snapshot_rejected(self, chain_config):
        snapshot = snap("demo_chain.json", "chain_snapshot.json", chain_config)
        with pytest.raises(SnapshotStale):
            build_runtime_graph(snapshot, ReconfigurationWindow(5, 10))

    def test_past_dependency_excluded(self, chain_config):
        snapshot = snap("demo_chain.json", "past_snapshot.json", chain_config)
        graph = build_runtime_graph(snapshot, ReconfigurationWindow(0, 100))
        callers = {e.caller_component for e in graph.edges}
        assert "A" not in callers  # cursor already moved past its only call
        assert ("B#0", "C") in {(e.caller_instance, e.callee) for e in graph.edges}

    def test_late_future_excluded_then_included(self, late_config):
        snapshot = snap("late_app.json", "late_snapshot.json", late_config)
        short = build_runtime_graph(snapshot, ReconfigurationWindow(0, 10))
        assert all(e.caller_component != "A" for e in short.edges)
        long = build_runtime_graph(snapshot, ReconfigurationWindow(0, 60))
        edge = next(e for e in long.edges if e.caller_component == "A")
        assert edge.callee == "B"
        assert edge.earliest == 50

    def test_in_flight_edge_is_unconditional(self, chain_config):
        import json

        doc = json.loads(read_fixture("past_snapshot.json"))
        doc["instances"][0]["in_flight"] = ["B", "IB"]
        snapshot = load_snapshot(json.dumps(doc), chain_config)
        graph = build_runtime_graph(snapshot, ReconfigurationWindow(0, 1))
        assert ("A#0", "B") in {(e.caller_instance, e.callee) for e in graph.edges}

    def test_instance_without_automaton_falls_back_to_static(self, chain_config):
        import json

        doc = json.loads(read_fixture("chain_snapshot.json"))
        # strip protocol info from A's in-progress operation
        doc["instances"][0]["cursor_state"] = None
        snapshot = load_snapshot(json.dumps(doc), chain_config)
        graph = build_runtime_graph(snapshot, ReconfigurationWindow(0, 1))
        assert ("A#0", "B") in {(e.caller_instance, e.callee) for e in graph.edges}

    def test_idle_instance_contributes_initial_cursor_edges(self, late_config):
        import json

        doc = json.loads(read_fixture("late_snapshot.json"))
        doc["instances"][0] = {
            "key": "A#0", "component": "A", "idle": True,
            "operation": None, "cursor_state": None, "in_flight": None,
        }
        snapshot = load_snapshot(json.dumps(doc), late_config)
        wide = build_runtime_graph(snapshot, ReconfigurationWindow(0, 100))
        assert ("A#0", "B") in {(e.caller_instance, e.callee) for e in wide.edges}
        # an idle instance put to work now still cannot reach the call within 10 units
        narrow = build_runtime_graph(snapshot, ReconfigurationWindow(0, 10))
        assert all(e.caller_instance != "A#0" for e in narrow.edges)


FIXTURE_CASES = [
    ("demo_chain.json", "chain_snapshot.json", {"C"}, 100, {"A", "B", "C"}),
    ("demo_chain.json", "past_snapshot.json", {"C"}, 100, {"B", "C"}),
    ("late_app.json", "late_snapshot.json", {"B"}, 10, {"B"}),
    ("late_app.json", "late_snapshot.json", {"B"}, 60, {"A", "B"}),
    ("diamond_app.json", "diamond_snapshot.json", {"D"}, 100, {"A", "B", "C", "D"}),
    ("diamond_app.json", "diamond_snapshot.json", {"B"}, 100, {"A", "B"}),
]


class TestAffectedSet:
    @pytest.mark.parametrize("app_name,snap_name,targets,duration,expected", FIXTURE_CASES)
    def test_fixture_cases_match_hand_derived_sets(self, app_name, snap_name, targets, duration, expected):
        from quiesce.model import load_application

        config = load_application(read_fixture(app_name))
        snapshot = load_snapshot(read_fixture(snap_name), config)
        static = build_static_graph(config)
        graph = build_runtime_graph(snapshot, ReconfigurationWindow(0, duration))
        assert affected_set(graph, static, frozenset(targets)) == frozenset(expected)

    @pytest.mark.parametrize("app_name,snap_name,targets,duration,expected", FIXTURE_CASES)
    def test_fixture_cases_equal_forward_simulation_oracle(
        self, app_name, snap_name, targets, duration, expected
    ):
        from quiesce.model import load_application

        config = load_application(read_fixture(app_name))
        snapshot = load_snapshot(read_fixture(snap_name), config)
        static = build_static_graph(config)
        window = ReconfigurationWindow(0, duration)
        graph = build_runtime_graph(snapshot, window)
        computed = affected_set(graph, static, frozenset(targets))
        oracle = forward_simulation_affected(snapshot, window, frozenset(targets))
        assert computed == oracle

    def test_isolated_target_is_alone(self):
        config = app([comp("X")])
        static = build_static_graph(config)
        snapshot = load_snapshot(
            '{"time": 0, "instances": [], "active_transactions": {}, '
            '"remote_refs": {}, "queue_depths": {}}',
            config,
        )
        graph = build_runtime_graph(snapshot, ReconfigurationWindow(0, 10))
        assert affected_set(graph, static, frozenset({"X"})) == frozenset({"X"})

    def test_unknown_target_rejected(self, chain_config):
        static = build_static_graph(chain_config)
        snapshot = snap("demo_chain.json", "chain_snapshot.json", chain_config)
        graph = build_runtime_graph(snapshot, ReconfigurationWindow(0, 10))
        with pytest.raises(UnknownTarget):
            affected_set(graph, static, frozenset({"Z"}))

    @pytest.mark.parametrize("app_name,snap_name", [
        ("demo_chain.json", "chain_snapshot.json"),
        ("demo_chain.json", "past_snapshot.json"),
        ("late_app.json", "late_snapshot.json"),
        ("diamond_app.json", "diamond_snapshot.json"),
    ])
    def test_monotone_in_window_and_bounded_by_closure(self, app_name, snap_name):
        from quiesce.model import load_application

        config = load_application(read_fixture(app_name))
        snapshot = load_snapshot(read_fixture(snap_name), config)
        static = build_static_graph(config)
        for target in static.nodes:
            targets = frozenset({target})
            closure = static.ancestors_of(targets) | targets
            previous: frozenset[str] = frozenset()
            for duration in (1, 3, 10, 51, 200):
                graph = build_runtime_graph(snapshot, ReconfigurationWindow(0, duration))
                current = affected_set(graph, static, targets)
                assert previous <= current  # monotone in window length
                assert current <= closure  # never outside the static ancestors
                previous = current

    def test_members_beyond_targets_lie_on_paths(self, chain_config):
        # minimality: every non-target member has a runtime path to a target
        snapshot = snap("demo_chain.json", "chain_snapshot.json", chain_config)
        static = build_static_graph(chain_config)
        graph = build_runtime_graph(snapshot, ReconfigurationWindow(0, 100))
        members = affected_set(graph, static, frozenset({"C"}))
        comp_edges = {(e.caller_component, e.callee) for e in graph.edges}
        for member in members - {"C"}:
            reach = {member}
            grew = True
            while grew:
                grew = False
                for src, dst in comp_edges:
                    if src in reach and dst not in reach:
                        reach.add(dst)
                        grew = True
            assert "C" in reach

    def test_unbounded_window_equals_closure_for_initial_cursors(self, diamond_config):
        import json

        doc = json.loads(read_fixture("diamond_snapshot.json"))
        snapshot = load_snapshot(json.dumps(doc), diamond_config)
        static = build_static_graph(diamond_config)
        graph = build_runtime_graph(snapshot, ReconfigurationWindow(0, None))
        targets = frozenset({"D"})
        assert affected_set(graph, static, targets) == static.ancestors_of(targets) | targets


def test_graph_exports(chain_config):
    snapshot = snap("demo_chain.json", "chain_snapshot.json", chain_config)
    static = build_static_graph(chain_config)
    graph = build_runtime_graph(snapshot, ReconfigurationWindow(0, 100))
    affected = affected_set(graph, static, frozenset({"C"}))
    doc = graph_to_json(static, graph, affected)
    assert doc["affected"] == ["A", "B", "C"]
    assert {e["callee"] for e in doc["edges"]} >= {"B", "C"}
    dot = graph_to_dot(static, graph, affected)
    assert dot.startswith("digraph") and '"A" -> "B"' in dot


def assert_graph_matches_reference(snapshot, window, targets) -> None:
    static = build_static_graph(snapshot.config)
    graph = build_runtime_graph(snapshot, window)
    reference = reference_runtime_graph(snapshot, window)
    assert graph_to_json(static, graph, affected_set(graph, static, targets)) == graph_to_json(
        static, reference, affected_set(reference, static, targets)
    )


WINDOWS = (0, 1, 3, 8, 25, None)


class TestRuntimeGraphMatchesReference:
    """The per-automaton earliest tables give the graph the per-label recomputation gives."""

    @pytest.mark.parametrize("seed", range(1, 101))
    def test_generated_cases_at_several_instants(self, seed):
        case = generate_case(seed)
        scenario = parse_scenario(case.scenario_text)
        engine = Engine(load_application(case.config_text), seed=scenario.seed)
        engine.load_scenario(scenario)
        for t in (0, 30, 60, 100, 150, 220):
            engine.run(until=t)
            snapshot = engine.snapshot()
            for duration in WINDOWS:
                assert_graph_matches_reference(snapshot, ReconfigurationWindow(t, duration), {case.target})

    def test_saturated_tree_with_busy_instances_mid_automaton(self):
        components, wiring, containers = tree_components(4, pool=2)
        sessions = [client(f"s{k}", *(call_entry(k + 3 * j, "C0") for j in range(6))) for k in range(8)]
        engine = Engine(app(components, wiring=wiring, containers=containers))
        engine.load_scenario(parse_scenario(scenario_doc(sessions)))
        mid = in_flight = 0
        for t in range(0, 40, 3):
            engine.run(until=t)
            snapshot = engine.snapshot()
            for inst in snapshot.instances:
                if inst.cursor is not None and inst.cursor.current != inst.cursor.automaton.initial:
                    mid += 1
                in_flight += inst.in_flight is not None
            for duration in WINDOWS:
                for target in ("C0", "C4", "C14"):
                    assert_graph_matches_reference(snapshot, ReconfigurationWindow(t, duration), {target})
        assert mid > 0 and in_flight > 0  # the cases the tables must get right were seen

    def branching_config(self):
        # A: q0 -IB.go-> q1 -IC.go-> q2 -IB.again-> q1 (a cycle), q1 -ID.go-> q3,
        # and a q0 -ID.go-> q3 shortcut; from q1 on, IB.go lies in the past
        cyclic = auto(
            [
                ("q0", "IB", "go", 2, "q1"),
                ("q1", "IC", "go", 1, "q2"),
                ("q2", "IB", "again", 4, "q1"),
                ("q1", "ID", "go", 5, "q3"),
                ("q0", "ID", "go", 9, "q3"),
            ],
            finals=["q3"],
        )
        return app(
            [
                comp("A", provided=[iface("IA", "run")], required=["IB", "IC", "ID"],
                     operations=[op("run", duration=30, automaton=cyclic)]),
                comp("B", provided=[iface("IB", "go", "again")],
                     operations=[op("go", tx="Joins"), op("again", tx="Joins")]),
                comp("C", provided=[iface("IC", "go")], operations=[op("go", tx="Joins")]),
                comp("D", provided=[iface("ID", "go")], operations=[op("go", tx="Joins")]),
            ],
            wiring=[("A", "IB", "B"), ("A", "IC", "C"), ("A", "ID", "D")],
        )

    @staticmethod
    def snapshot_of(config, instances, time=0):
        doc = {"time": time, "instances": instances, "active_transactions": {},
               "remote_refs": {}, "queue_depths": {}}
        return load_snapshot(json.dumps(doc), config)

    @staticmethod
    def instance(key, component, operation=None, state=None, in_flight=None):
        return {"key": key, "component": component, "idle": operation is None,
                "operation": operation, "cursor_state": state, "in_flight": in_flight}

    def test_branching_cyclic_automaton_with_past_labels(self):
        config = self.branching_config()
        instances = [self.instance(f"A#{k}", "A", "run", state) for k, state in enumerate(("q0", "q1", "q2", "q3"))]
        instances.append(self.instance("A#4", "A"))
        instances.append(self.instance("A#5", "A", "run", "q2", in_flight=["C", "IC"]))
        snapshot = self.snapshot_of(config, instances, time=7)
        automaton = config.components()["A"].operations[0].effect_automaton
        assert [label.operation for label, _ in automaton.earliest_table("q1")] == ["again", "go", "go"]
        assert ("IB", "go") not in dict(automaton.earliest_table("q1"))  # in the past from q1
        assert automaton.earliest_table("q3") == ()
        for duration in WINDOWS:
            for target in "ABCD":
                assert_graph_matches_reference(snapshot, ReconfigurationWindow(7, duration), {target})

    def test_static_fallback_and_idle_minimum_over_operations(self):
        config = app(
            [
                comp("E", provided=[iface("IE", "plain", "walk")], required=["IB", "IC"],
                     operations=[op("plain"), op("walk", automaton=auto([("q0", "IB", "go", 6, "q1")]))]),
                comp("F", provided=[iface("IF", "plain")], required=["IC"], operations=[op("plain")]),
                # idle G reaches IB.go at 0 through hop and at 3 through walk: the minimum counts
                comp("G", provided=[iface("IG", "walk", "hop")], required=["IB", "IC"],
                     operations=[op("walk", automaton=auto([("q0", "IC", "go", 3, "q1"), ("q1", "IB", "go", 1, "q2")])),
                                 op("hop", automaton=auto([("q0", "IB", "go", 0, "q1")]))]),
                comp("B", provided=[iface("IB", "go")], operations=[op("go", tx="Joins")]),
                comp("C", provided=[iface("IC", "go")], operations=[op("go", tx="Joins")]),
            ],
            wiring=[("E", "IB", "B"), ("E", "IC", "C"), ("F", "IC", "C"), ("G", "IB", "B"), ("G", "IC", "C")],
        )
        instances = [
            self.instance("E#0", "E"),
            self.instance("E#1", "E", "plain"),
            self.instance("E#2", "E", "walk", "q0"),
            self.instance("E#3", "E", "walk", "q1"),
            self.instance("F#0", "F"),
            self.instance("F#1", "F", "plain", in_flight=["C", "IC"]),
            self.instance("G#0", "G"),
        ]
        snapshot = self.snapshot_of(config, instances)
        for duration in WINDOWS:
            for target in ("B", "C"):
                assert_graph_matches_reference(snapshot, ReconfigurationWindow(0, duration), {target})
