from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiesce.engine import Engine
from quiesce.errors import NameMismatch, ParseError, ValidationError, VersionError
from quiesce.model import (
    ChangeKind,
    CompositeComponent,
    Wire,
    check_composition,
    diff_versions,
    dominant_change,
    flatten_composite,
    load_application,
    parse_component,
    renest_composite,
)

from builders import app, appdoc, auto, comp, iface, op
from conftest import read_fixture
from gen import generate_case


class TestLoadApplication:
    def test_minimal_single_component(self):
        config = app([comp("S")])
        assert list(config.components()) == ["S"]
        assert len(config.containers) == 1
        assert config.wiring() == ()

    def test_unwired_requirement_rejected(self):
        doc = appdoc([comp("S", required=["I"])])
        with pytest.raises(ValidationError, match="unwired requirement"):
            load_application(doc)

    def test_requirement_may_be_declared_external(self):
        config = app([comp("S", required=["I"])], wiring=[("S", "I", None)])
        assert config.is_declared_external("S", "I")

    def test_demo_chain_static_edges(self, chain_config):
        wires = {(w.requirer, w.provider) for w in chain_config.wiring()}
        assert wires == {("A", "B"), ("B", "C")}

    def test_unknown_top_level_key_rejected(self):
        doc = json.loads(appdoc([comp("S")]))
        doc["extras"] = []
        with pytest.raises(ParseError, match="unknown keys"):
            load_application(json.dumps(doc))

    def test_unknown_component_key_rejected(self):
        bad = comp("S")
        bad["flavor"] = "vanilla"
        with pytest.raises(ParseError, match="unknown keys"):
            load_application(appdoc([bad]))

    def test_malformed_json_rejected(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            load_application("{nope")

    def test_stateless_with_state_fields_rejected(self):
        with pytest.raises(ValidationError, match="conversational state"):
            load_application(appdoc([comp("S", state_fields=["x"])]))

    def test_entity_needs_schema_and_store(self):
        with pytest.raises(ValidationError, match="schema"):
            load_application(appdoc([comp("E", kind="Entity")]))
        with pytest.raises(ValidationError, match="data store"):
            load_application(appdoc([comp("E", kind="Entity", entity_schema=["c"])]))

    def test_entity_with_store_loads(self):
        config = app(
            [comp("E", kind="Entity", entity_schema=["c"], data_store="db")],
            data_stores=[{"name": "db", "schema": ["c"]}],
        )
        assert config.components()["E"].data_store == "db"

    def test_message_driven_needs_single_interface_and_queue(self):
        two = comp("M", kind="MessageDriven", provided=[iface("IM", "on"), iface("IX", "x")])
        with pytest.raises(ValidationError, match="exactly one receiver"):
            load_application(appdoc([two]))
        no_queue = comp("M", kind="MessageDriven")
        with pytest.raises(ValidationError, match="queue"):
            load_application(appdoc([no_queue]))

    def test_container_chain_ordering_enforced(self):
        bad_chain = {
            "hosted_component": "S",
            "interceptor_chain": ["Pooling", "TxDemarcation"],
            "pool_size": 2,
        }
        with pytest.raises(ValidationError, match="TxDemarcation must precede Pooling"):
            load_application(appdoc([comp("S")], containers=[bad_chain]))

    def test_barrier_after_tx_demarcation_rejected(self):
        bad_chain = {
            "hosted_component": "S",
            "interceptor_chain": ["TxDemarcation", "RedeployBarrier", "Pooling"],
            "pool_size": 2,
        }
        with pytest.raises(ValidationError, match="must precede TxDemarcation"):
            load_application(appdoc([comp("S")], containers=[bad_chain]))

    def test_every_component_needs_exactly_one_container(self):
        with pytest.raises(ValidationError, match="no container"):
            load_application(appdoc([comp("S")], containers=[]))
        doubled = [
            {"hosted_component": "S", "pool_size": 1},
            {"hosted_component": "S", "pool_size": 2},
        ]
        with pytest.raises(ValidationError, match="more than one container"):
            load_application(appdoc([comp("S")], containers=doubled))

    def test_automaton_alphabet_must_be_required(self):
        bad = comp(
            "S",
            operations=[op("work", automaton=auto([("q0", "IX", "x", 0, "q1")]))],
        )
        with pytest.raises(ValidationError, match="not declared required"):
            load_application(appdoc([bad]))

    def test_composites_nest_and_cycle_checked(self):
        doc = json.loads(appdoc([comp("S"), comp("T")]))
        doc["composites"] = [
            {"name": "outer", "children": ["inner"], "internal_wiring": []},
            {"name": "inner", "children": ["S", "T"], "internal_wiring": []},
        ]
        config = load_application(json.dumps(doc))
        assert {c.name for c in config.root.leaves()} == {"S", "T"}
        doc["composites"] = [
            {"name": "a", "children": ["b", "S", "T"], "internal_wiring": []},
            {"name": "b", "children": ["a"], "internal_wiring": []},
        ]
        with pytest.raises(ValidationError):
            load_application(json.dumps(doc))


class TestDiffVersions:
    def base(self) -> dict:
        return comp("S", operations=[op("work", duration=5)])

    def test_changed_automaton_is_functional(self):
        old = parse_component(self.base())
        new_doc = comp(
            "S",
            version=2,
            operations=[op("work", duration=5, automaton=None)],
        )
        new_doc["operations"][0]["duration"] = 7
        new = parse_component(new_doc)
        assert diff_versions(old, new) is ChangeKind.FUNCTIONAL

    def test_added_operation_is_structural(self):
        old = parse_component(self.base())
        new = parse_component(
            comp("S", version=2, provided=[iface("IS", "work", "extra")],
                 operations=[op("work"), op("extra")])
        )
        assert diff_versions(old, new) is ChangeKind.STRUCTURAL

    def test_pool_size_only_is_non_functional(self):
        old = parse_component(self.base())
        new = parse_component(comp("S", version=2, operations=[op("work", duration=5)]))
        assert diff_versions(old, new, qos_change=True) is ChangeKind.NON_FUNCTIONAL

    def test_structural_dominates_functional(self):
        old = parse_component(self.base())
        new_doc = comp(
            "S", version=2, provided=[iface("IS", "work", "extra")],
            operations=[op("work", duration=9), op("extra")],
        )
        assert diff_versions(old, parse_component(new_doc)) is ChangeKind.STRUCTURAL

    def test_name_mismatch_and_version_errors(self):
        old = parse_component(self.base())
        other = parse_component(comp("T", version=2))
        with pytest.raises(NameMismatch):
            diff_versions(old, other)
        stale = parse_component(comp("S", version=1))
        with pytest.raises(VersionError):
            diff_versions(old, stale)

    def test_purity_same_inputs_same_answer(self):
        old = parse_component(self.base())
        new = parse_component(comp("S", version=2, operations=[op("work", duration=8)]))
        kinds = {diff_versions(old, new) for _ in range(5)}
        assert kinds == {ChangeKind.FUNCTIONAL}

    def test_dominance_order_is_total(self):
        assert dominant_change(
            [ChangeKind.FUNCTIONAL, ChangeKind.STRUCTURAL, ChangeKind.NON_FUNCTIONAL]
        ) is ChangeKind.STRUCTURAL
        assert dominant_change([ChangeKind.FUNCTIONAL]) is ChangeKind.FUNCTIONAL


class TestCheckComposition:
    def test_consistent_demo_reports_empty(self, chain_config):
        assert check_composition(chain_config).consistent

    def test_provider_losing_an_operation_is_one_finding(self, chain_config):
        # replace C with a version whose interface lost backWork
        gutted = parse_component(
            comp("C", version=2, provided=[iface("IC", "otherOp")],
                 operations=[op("otherOp", tx="Joins", duration=1)], access={"IC": "Local"})
        )
        config = chain_config.with_component(gutted)
        report = check_composition(config)
        kinds = [f.kind for f in report.findings]
        assert kinds == ["signature-mismatch"]

    def test_entity_with_removed_store_is_dangling(self):
        config = app(
            [comp("E", kind="Entity", entity_schema=["c"], data_store="db")],
            data_stores=[{"name": "db", "schema": ["c"]}],
        )
        from dataclasses import replace

        broken = replace(config, data_stores=())
        report = check_composition(broken)
        assert [f.kind for f in report.findings] == ["dangling-store"]

    def test_loaded_documents_always_check_clean(self, chain_config, diamond_config, late_config):
        for config in (chain_config, diamond_config, late_config):
            assert check_composition(config).consistent


class TestFlattening:
    def test_flatten_renest_round_trip(self, chain_config):
        leaves, hierarchy = flatten_composite(chain_config.root)
        rebuilt = renest_composite(leaves, hierarchy)
        assert rebuilt == chain_config.root

    def test_round_trip_with_nested_composites(self):
        doc = json.loads(appdoc([comp("S"), comp("T"), comp("U")]))
        doc["composites"] = [
            {"name": "grp", "children": ["S", "T"], "internal_wiring": []},
        ]
        config = load_application(json.dumps(doc))
        leaves, hierarchy = flatten_composite(config.root)
        assert renest_composite(leaves, hierarchy) == config.root


def scan_tree(node: CompositeComponent) -> tuple[list, list[Wire]]:
    """Leaves and wires of a composite tree, in document order, by direct recursion."""
    leaves, wires = [], list(node.internal_wiring)
    for child in node.children:
        if isinstance(child, CompositeComponent):
            child_leaves, child_wires = scan_tree(child)
            leaves += child_leaves
            wires += child_wires
        else:
            leaves.append(child)
    return leaves, wires


def assert_index_matches_scan(config) -> None:
    leaves, wires = scan_tree(config.root)
    assert config.components() == {c.name: c for c in leaves}
    assert list(config.components()) == list(dict.fromkeys(c.name for c in leaves))
    assert config.wiring() == tuple(wires)
    interfaces = {w.interface for w in wires} | {i for c in leaves for i in c.required} | {"INope"}
    for requirer in {c.name for c in leaves} | {w.requirer for w in wires} | {"Nope"}:
        for interface in interfaces:
            matching = [w for w in wires if w.requirer == requirer and w.interface == interface]
            assert config.provider_of(requirer, interface) == (matching[0].provider if matching else None)
            assert config.is_declared_external(requirer, interface) == any(
                w.provider is None for w in matching
            )
    unwired = [
        (c.name, f"requires {interface!r} with no wire")
        for c in sorted(leaves, key=lambda c: c.name)
        for interface in c.required
        if not any(w.requirer == c.name and w.interface == interface for w in wires)
    ]
    findings = check_composition(config).findings
    assert [(f.subject, f.detail) for f in findings if f.kind == "unwired-requirement"] == unwired
    # unwired findings come first, in the scan's order
    assert [f.kind for f in findings[: len(unwired)]] == ["unwired-requirement"] * len(unwired)


def nested_config():
    doc = json.loads(
        appdoc(
            [
                comp("A", required=["IB", "ILog"],
                     operations=[op("work", automaton=auto([("q0", "IB", "work", 0, "q1")]))]),
                comp("B", required=["IC"]),
                comp("C"),
                comp("D", required=["IC", "ILog"]),
            ],
            wiring=[("D", "IC", "C"), ("D", "ILog", None)],
            composites=[
                {"name": "outer", "children": ["A", "inner"],
                 "internal_wiring": [{"requirer": "A", "interface": "IB", "provider": "B"},
                                     {"requirer": "A", "interface": "ILog", "provider": None}]},
                {"name": "inner", "children": ["B", "C"],
                 "internal_wiring": [{"requirer": "B", "interface": "IC", "provider": "C"}]},
            ],
        )
    )
    return load_application(json.dumps(doc))


class TestConfigurationIndex:
    @pytest.mark.parametrize("seed", range(1, 101))
    def test_generated_cases_agree_with_a_linear_scan(self, seed):
        config = load_application(generate_case(seed).config_text)
        assert_index_matches_scan(config)
        # a drifted copy: every other top-level wire gone, so some requirements are unwired
        drifted = replace(config, root=replace(config.root, internal_wiring=config.root.internal_wiring[::2]))
        assert_index_matches_scan(drifted)

    def test_nested_composites_agree_with_a_linear_scan(self):
        config = nested_config()
        assert config.provider_of("A", "IB") == "B"
        assert config.provider_of("B", "IC") == "C"
        assert config.is_declared_external("A", "ILog")
        assert_index_matches_scan(config)

    def test_duplicate_wire_added_by_the_engine_first_wire_wins(self):
        engine = Engine(nested_config())
        x = parse_component(comp("X", required=["IC"]))
        engine.add_component(x, wiring=(Wire("X", "IC", "C"), Wire("X", "IC", None), Wire("X", "IC", "B")))
        config = engine.config
        assert config.provider_of("X", "IC") == "C"
        assert config.is_declared_external("X", "IC")
        assert_index_matches_scan(config)

    def test_descriptor_operation_maps_agree_with_a_scan(self):
        for seed in range(1, 21):
            for c in load_application(generate_case(seed).config_text).components().values():
                assert c.provided_names() == frozenset(sig.name for sig in c.provided)
                assert c.provided_names() is c.provided_names()  # built once per descriptor
                for name in {o.name for o in c.operations} | {"nope"}:
                    assert c.operation_spec(name) == next((o for o in c.operations if o.name == name), None)
                for sig in c.provided:
                    for name in sig.operation_names() | {"nope"}:
                        expected = any(s.name == sig.name and name in s.operation_names() for s in c.provided)
                        assert c.provides_operation(sig.name, name) == expected
                        assert not c.provides_operation("INope", name)


class TestIndexNeverStale:
    def test_with_component_answers_with_the_new_descriptor(self, chain_config):
        old_c = chain_config.components()["C"]
        new_c = replace(old_c, version=2, operations=(replace(old_c.operations[0], duration=9),))
        swapped = chain_config.with_component(new_c)
        assert swapped.components()["C"] is new_c
        assert swapped.components()["C"].operation_spec(new_c.operations[0].name).duration == 9
        assert chain_config.components()["C"] is old_c
        assert_index_matches_scan(swapped)
        assert_index_matches_scan(chain_config)

    def test_add_and_remove_component_answer_with_the_new_wiring(self):
        engine = Engine(nested_config())
        before = engine.config
        assert before.provider_of("X", "IC") is None  # builds the old index first
        engine.add_component(parse_component(comp("X", required=["IC"])), wiring=(Wire("X", "IC", "C"),))
        added = engine.config
        assert added.provider_of("X", "IC") == "C"
        assert "X" in added.components()
        assert before.provider_of("X", "IC") is None
        assert "X" not in before.components()
        engine.remove_component("X")
        removed = engine.config
        assert removed.provider_of("X", "IC") is None
        assert "X" not in removed.components()
        assert added.provider_of("X", "IC") == "C"
        for config in (before, added, removed):
            assert_index_matches_scan(config)

    def test_composition_report_is_kept_per_configuration(self, chain_config):
        engine = Engine(chain_config)
        before = engine.config
        report = check_composition(before)
        assert report.consistent and check_composition(before) is report  # computed once
        engine.remove_component("C")  # drifts: B's requirement on C loses its wire
        drifted = check_composition(engine.config)
        assert [(f.kind, f.subject, f.detail) for f in drifted.findings] == [
            ("unwired-requirement", "B", "requires 'IC' with no wire")
        ]
        assert check_composition(before) is report

    def test_mutating_the_components_dict_leaves_the_configuration_alone(self, chain_config):
        expected = dict(chain_config.components())
        handed_out = chain_config.components()
        handed_out.clear()
        handed_out["Z"] = expected["C"]
        assert chain_config.components() == expected


@settings(max_examples=60, deadline=None)
@given(
    duration=st.integers(min_value=1, max_value=50),
    pool=st.integers(min_value=1, max_value=16),
    qos=st.booleans(),
)
def test_diff_is_pure_and_never_invents_structural(duration, pool, qos):
    old = parse_component(comp("S", operations=[op("work", duration=5)]))
    new = parse_component(comp("S", version=2, operations=[op("work", duration=duration)]))
    kind = diff_versions(old, new, qos_change=qos)
    assert kind is not ChangeKind.STRUCTURAL
    assert kind is diff_versions(old, new, qos_change=qos)


def test_fixture_documents_parse(chain_config):
    # the shipped fixtures are valid strict-mode documents
    for name in ("demo_chain.json", "diamond_app.json", "late_app.json"):
        config = load_application(read_fixture(name))
        assert check_composition(config).consistent
