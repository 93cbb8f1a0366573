from __future__ import annotations

import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quiesce.model as model_module
from quiesce.engine import Engine
from quiesce.errors import NameMismatch, ParseError, ValidationError, VersionError
from quiesce.model import (
    ChangeKind,
    ComponentDescriptor,
    ContainerSpec,
    InterfaceSignature,
    Wire,
    check_composition,
    diff_versions,
    load_application,
    parse_component,
)

from builders import app, appdoc, auto, comp, iface, op, operation_names
from conftest import read_fixture
from gen import generate_case
from oracles import (
    CONFIGURATION_INDEXES,
    carried_index_faults,
    fresh_build,
    read_report,
    reference_validate_configuration,
)


class TestLoadApplication:
    def test_minimal_single_component(self):
        config = app([comp("S")])
        assert list(config.components()) == ["S"]
        assert len(config.containers) == 1
        assert config.wires == ()

    def test_unwired_requirement_rejected(self):
        doc = appdoc([comp("S", required=["I"])])
        with pytest.raises(ValidationError, match="unwired-requirement: S: requires 'I' with no wire"):
            load_application(doc)

    def test_requirement_may_be_declared_external(self):
        config = app([comp("S", required=["I"])], wiring=[("S", "I", None)])
        assert config.is_declared_external("S", "I")

    def test_demo_chain_static_edges(self, chain_config):
        wires = {(w.requirer, w.provider) for w in chain_config.wires}
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
        expected = "invalid application JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
        with pytest.raises(ParseError, match=re.escape(expected)):
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
        assert [c.name for c in config.leaves] == ["S", "T"]
        # a and b claim each other, so neither is reached from the top: S and T would vanish
        doc["composites"] = [
            {"name": "a", "children": ["b", "S", "T"], "internal_wiring": []},
            {"name": "b", "children": ["a"], "internal_wiring": []},
        ]
        with pytest.raises(ValidationError, match="^composite cycle through 'a'$"):
            load_application(json.dumps(doc))
        del doc["containers"]
        with pytest.raises(ValidationError, match="^composite cycle through 'a'$"):
            load_application(json.dumps(doc))
        # a composite hanging off the cycle is never reached either; the error names one on the cycle
        doc["composites"] = [
            {"name": "c", "children": ["S"], "internal_wiring": []},
            {"name": "a", "children": ["b", "c"], "internal_wiring": []},
            {"name": "b", "children": ["a", "T"], "internal_wiring": []},
        ]
        with pytest.raises(ValidationError, match="^composite cycle through 'a'$"):
            load_application(json.dumps(doc))


def load_outcome(doc: str) -> str | None:
    """The name of the error ``load_application`` raises on ``doc``, or None when it loads."""
    try:
        load_application(doc)
    except (ParseError, ValidationError) as exc:
        return type(exc).__name__
    return None


def reference_outcome(doc: str, monkeypatch) -> str | None:
    with monkeypatch.context() as patch:
        patch.setattr(model_module, "validate_configuration", reference_validate_configuration)
        return load_outcome(doc)


def two_tier(**changes) -> str:
    """S calls T.work through IT; keyword arguments replace whole document sections."""
    components = [
        comp("S", required=["IT"], operations=[op("work", automaton=auto([("q0", "IT", "work", 1, "q1")]))]),
        comp("T", provided=[iface("IT", "work")]),
        comp("U", provided=[iface("IU", "work")]),
    ]
    doc = json.loads(appdoc(components, wiring=[("S", "IT", "T")]))
    doc.update(changes)
    return json.dumps(doc)


def wires(*triples) -> list[dict]:
    return [{"requirer": r, "interface": i, "provider": p} for r, i, p in triples]


def entity(**extra) -> dict:
    return comp("E", kind="Entity", entity_schema=["c"], **extra)


def receiver(**extra) -> dict:
    return comp("M", kind="MessageDriven", provided=[iface("IM", "on")], operations=[op("on")], **extra)


# one document per validation branch, with the full message loading gives it
VALIDATION_BRANCHES = {
    "descriptor": (
        appdoc([comp("S", state_fields=["x"])]),
        "component 'S': stateless session components carry no conversational state",
    ),
    "container-chain": (
        appdoc([comp("S")], containers=[{"hosted_component": "S", "interceptor_chain": ["Pooling"]}]),
        "container for 'S': chain needs TxDemarcation and Pooling",
    ),
    "container-for-ghost": (
        appdoc([comp("S")], containers=[{"hosted_component": "S"}, {"hosted_component": "Ghost"}]),
        "container hosts unknown component 'Ghost'",
    ),
    "two-containers": (
        appdoc([comp("S")], containers=[{"hosted_component": "S"}] * 2),
        "a component is hosted by more than one container",
    ),
    "no-container": (appdoc([comp("S")], containers=[]), "component 'S' has no container"),
    "requirer-not-deployed": (
        two_tier(wiring=wires(("S", "IT", "T"), ("Ghost", "IT", "T"))),
        "wire requirer 'Ghost' is not a deployed component",
    ),
    "interface-not-required": (
        two_tier(wiring=wires(("S", "IT", "T"), ("S", "IU", "U"))),
        "wire on 'S': interface 'IU' is not declared required",
    ),
    "two-wires": (
        two_tier(wiring=wires(("S", "IT", "T"), ("S", "IT", None))),
        "requirement 'S'/'IT' wired to more than one provider",
    ),
    "unwired": (two_tier(wiring=[]), "unwired-requirement: S: requires 'IT' with no wire"),
    "provider-not-deployed": (
        two_tier(wiring=wires(("S", "IT", "Ghost"))),
        "signature-mismatch: S: provider 'Ghost' missing",
    ),
    "provider-lacks-interface": (
        two_tier(wiring=wires(("S", "IT", "U"))),
        "signature-mismatch: S: provider 'U' no longer provides 'IT'",
    ),
    "call-not-offered": (
        appdoc(
            [
                comp("S", required=["IT"], operations=[op("work", automaton=auto([("q0", "IT", "gone", 1, "q1")]))]),
                comp("T", provided=[iface("IT", "work")]),
            ],
            wiring=[("S", "IT", "T")],
        ),
        "signature-mismatch: S: calls IT.gone which provider 'T' does not offer",
    ),
    "entity-without-store": (appdoc([entity()]), "dangling-store: E: data store None missing"),
    "entity-without-store-beside-a-null-named-one": (
        appdoc([entity()], data_stores=[{"name": None, "schema": ["c"]}]),
        "dangling-store: E: data store None missing",
    ),
    "entity-with-unknown-store": (
        appdoc([entity(data_store="db")], data_stores=[{"name": "other", "schema": ["c"]}]),
        "dangling-store: E: data store 'db' missing",
    ),
    "receiver-without-queue": (appdoc([receiver()]), "dangling-queue: M: queue None missing"),
    "receiver-without-queue-beside-a-null-named-one": (
        appdoc([receiver()], queues=[None]),
        "dangling-queue: M: queue None missing",
    ),
    "receiver-with-unknown-queue": (
        appdoc([receiver(queue="jobs")], queues=["other"]),
        "dangling-queue: M: queue 'jobs' missing",
    ),
}


class TestValidationBranches:
    @pytest.mark.parametrize("branch", sorted(VALIDATION_BRANCHES))
    def test_each_branch_rejects_like_the_reference(self, branch, monkeypatch):
        doc, message = VALIDATION_BRANCHES[branch]
        assert reference_outcome(doc, monkeypatch) == "ValidationError"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_application(doc)

    def test_the_unbroken_documents_load(self, monkeypatch):
        for doc in (
            two_tier(),
            two_tier(wiring=wires(("S", "IT", None))),
            appdoc([entity(data_store="db")], data_stores=[{"name": "db", "schema": ["c"]}]),
            appdoc([receiver(queue="jobs")], queues=["jobs"]),
        ):
            assert load_outcome(doc) is None
            assert reference_outcome(doc, monkeypatch) is None


MUTATIONS = (
    "drop-wire",
    "redirect-wire",
    "duplicate-wire",
    "ghost-requirer",
    "ghost-provider",
    "undeclared-interface",
    "removed-operation",
    "dangling-store",
    "dangling-queue",
)


def mutate(doc: dict, mutation: str, rng: random.Random) -> dict | None:
    """A copy of ``doc`` with one ``mutation``, or None when the document offers it nothing to act on."""
    doc = json.loads(json.dumps(doc))
    wiring, components = doc["wiring"], doc["components"]
    names = [c["name"] for c in components]
    interfaces = sorted({sig["name"] for c in components for sig in c["provided"]})
    if mutation == "drop-wire" and wiring:
        del wiring[rng.randrange(len(wiring))]
    elif mutation == "redirect-wire" and wiring:
        rng.choice(wiring)["provider"] = rng.choice(names)
    elif mutation == "duplicate-wire" and wiring:
        wiring.append(dict(rng.choice(wiring), provider=rng.choice(names + [None])))
    elif mutation == "ghost-requirer":
        wiring.append({"requirer": "Ghost", "interface": rng.choice(interfaces), "provider": rng.choice(names)})
    elif mutation == "ghost-provider" and wiring:
        rng.choice(wiring)["provider"] = "Ghost"
    elif mutation == "undeclared-interface":
        wiring.append({"requirer": rng.choice(names), "interface": rng.choice(interfaces), "provider": rng.choice(names)})
    elif mutation == "removed-operation":
        sig = rng.choice([sig for c in components for sig in c["provided"] if sig["operations"]])
        del sig["operations"][rng.randrange(len(sig["operations"]))]
    elif mutation == "dangling-store" and any(c["kind"] == "Entity" for c in components):
        if rng.random() < 0.5:
            doc["data_stores"] = []
        else:
            next(c for c in components if c["kind"] == "Entity").pop("data_store")
    elif mutation == "dangling-queue" and doc["queues"]:
        if rng.random() < 0.5:
            doc["queues"] = []
        else:
            next(c for c in components if c["kind"] == "MessageDriven").pop("queue")
    else:
        return None
    return doc


def mutated_documents(seed: int) -> list[tuple[str, str]]:
    base = json.loads(generate_case(seed).config_text)
    out = []
    for mutation in MUTATIONS:
        doc = mutate(base, mutation, random.Random(f"{seed}|{mutation}"))
        if doc is not None:
            out.append((mutation, json.dumps(doc)))
    return out


class TestValidationMatchesReference:
    @pytest.mark.parametrize("seed", range(1, 101))
    def test_mutated_documents_are_rejected_exactly_when_the_reference_rejects(self, seed, monkeypatch):
        assert load_outcome(generate_case(seed).config_text) is None
        for mutation, doc in mutated_documents(seed):
            assert load_outcome(doc) == reference_outcome(doc, monkeypatch), mutation

    def test_the_mutations_both_keep_and_break_documents(self, monkeypatch):
        outcomes = {
            (mutation, load_outcome(doc)) for seed in range(1, 31) for mutation, doc in mutated_documents(seed)
        }
        assert {mutation for mutation, _ in outcomes} == set(MUTATIONS)
        assert ("redirect-wire", None) in outcomes and ("redirect-wire", "ValidationError") in outcomes
        assert ("duplicate-wire", "ValidationError") in outcomes


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

    def test_reordered_access_pairs_are_not_a_change(self):
        old = parse_component(comp("S", provided=[iface("IA", "work"), iface("IB", "work")],
                                   access={"IB": "Local", "IA": "Remote"}))
        assert [name for name, _ in old.access] == ["IA", "IB"]
        new = replace(old, version=2, access=old.access[::-1])
        assert new.access == old.access
        assert diff_versions(old, new) is ChangeKind.FUNCTIONAL

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


def without_last_operation(descriptor):
    """The next version of ``descriptor`` with the last operation of each provided interface gone."""
    provided = tuple(InterfaceSignature(sig.name, sig.operations[:-1]) for sig in descriptor.provided)
    return replace(descriptor, version=descriptor.version + 1, provided=provided)


class TestDerivedReport:
    """A copy made by ``with_component`` reads the report a fresh build computes in full."""

    @pytest.fixture
    def checks(self, monkeypatch):
        """The ``names`` of each composition check computed from here on (None: every component)."""
        seen = []
        real_check = model_module._check_composition

        def recording(config, names=None):
            seen.append(names)
            return real_check(config, names)

        monkeypatch.setattr(model_module, "_check_composition", recording)
        return seen

    def test_a_consistent_parent_hands_on_only_the_replaced_name(self, chain_config, checks):
        assert check_composition(chain_config).consistent
        swapped = chain_config.with_component(without_last_operation(chain_config.component("C")))
        report = check_composition(swapped)
        assert checks == [frozenset({"C"})]
        # B's automaton calls C.backWork: the finding sits on a wire into the replaced component
        assert [(f.kind, f.subject, f.detail) for f in report.findings] == [
            ("signature-mismatch", "B", "calls IC.backWork which provider 'C' does not offer")
        ]
        assert report == check_composition(fresh_build(swapped))
        assert "_changed" not in swapped.__dict__ and check_composition(swapped) is report

    def test_an_inconsistent_parent_makes_the_copy_check_everything(self, chain_config, checks):
        broken = chain_config.with_component(without_last_operation(chain_config.component("C")))
        assert not check_composition(broken).consistent
        child = broken.with_component(replace(chain_config.component("A"), version=2))
        assert "_changed" not in child.__dict__
        assert check_composition(child) == check_composition(fresh_build(child))
        assert checks == [frozenset({"C"}), None, None]  # the broken copy, the child, the fresh build

    def test_a_chain_of_unread_copies_checks_every_replaced_name(self, checks):
        config = nested_config()
        assert check_composition(config).consistent
        first = config.with_component(without_last_operation(config.component("B")))
        second = first.with_component(without_last_operation(config.component("C")))
        assert second.__dict__["_changed"] == {"B", "C"}
        report = check_composition(second)
        assert [(f.kind, f.subject) for f in report.findings] == [
            ("signature-mismatch", "A"),  # calls B.work, which B no longer offers
        ]
        assert report == check_composition(fresh_build(second))
        assert read_report(first) == check_composition(fresh_build(first))
        assert checks[:2] == [None, frozenset({"B", "C"})]  # loading, then the chain's end

    @pytest.mark.parametrize("seed", range(1, 31))
    def test_generated_chains_read_what_a_fresh_build_computes(self, seed):
        config = load_application(generate_case(seed).config_text)
        rng = random.Random(seed)
        for _ in range(4):
            name = rng.choice(sorted(config.components()))
            descriptor = config.component(name)
            if rng.random() < 0.5:
                descriptor = without_last_operation(descriptor)
            else:
                descriptor = replace(descriptor, version=descriptor.version + 1)
            config = config.with_component(descriptor)
            if rng.random() < 0.5:  # some copies are read, so the next one derives from a computed report
                assert check_composition(config) == check_composition(fresh_build(config))
        assert check_composition(config) == check_composition(fresh_build(config))


def scan_document(doc: dict) -> tuple[list[ComponentDescriptor], list[Wire]]:
    """Leaves and wires of an application document, its composites expanded by direct recursion.

    The top level holds the components and composites no composite names as a
    child.  A composite's leaves take its place among its siblings; its own
    wires come before those of the composites inside it.
    """
    components = {c["name"]: parse_component(c) for c in doc["components"]}
    composites = {cd["name"]: cd for cd in doc.get("composites", [])}
    children = {child for cd in composites.values() for child in cd["children"]}

    def wires_of(docs: list[dict]) -> list[Wire]:
        return [Wire(w["requirer"], w["interface"], w.get("provider")) for w in docs]

    def walk(names: list[str]) -> tuple[list[ComponentDescriptor], list[Wire]]:
        leaves, wires = [], []
        for name in names:
            if name in components:
                leaves.append(components[name])
                continue
            wires += wires_of(composites[name]["internal_wiring"])
            inner_leaves, inner_wires = walk(composites[name]["children"])
            leaves += inner_leaves
            wires += inner_wires
        return leaves, wires

    leaves, nested_wires = walk([n for n in [*components, *composites] if n not in children])
    return leaves, wires_of(doc.get("wiring", [])) + nested_wires


def assert_index_matches_scan(config, leaves: list[ComponentDescriptor], wires: list[Wire]) -> None:
    """``config`` holds exactly ``leaves`` and ``wires``, and every index answers as a linear scan of them."""
    assert config.leaves == tuple(leaves)
    assert config.wires == tuple(wires)
    assert config.components() == {c.name: c for c in leaves}
    assert list(config.components()) == [c.name for c in leaves]
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


def nested_doc() -> dict:
    return json.loads(
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


def nested_config():
    return load_application(json.dumps(nested_doc()))


class TestConfigurationIndex:
    @pytest.mark.parametrize("seed", range(1, 101))
    def test_generated_cases_agree_with_a_linear_scan(self, seed):
        text = generate_case(seed).config_text
        config = load_application(text)
        leaves, wires = scan_document(json.loads(text))
        assert_index_matches_scan(config, leaves, wires)
        # a drifted copy: every other wire gone, so some requirements are unwired
        assert_index_matches_scan(replace(config, wires=config.wires[::2]), leaves, wires[::2])

    def test_nested_composites_agree_with_a_linear_scan(self):
        config = nested_config()
        assert config.provider_of("A", "IB") == "B"
        assert config.provider_of("B", "IC") == "C"
        assert config.is_declared_external("A", "ILog")
        assert_index_matches_scan(config, *scan_document(nested_doc()))

    def test_duplicate_wire_added_by_the_engine_first_wire_wins(self):
        engine = Engine(nested_config())
        x = parse_component(comp("X", required=["IC"]))
        added_wires = [Wire("X", "IC", "C"), Wire("X", "IC", None), Wire("X", "IC", "B")]
        engine.add_component(x, wiring=tuple(added_wires))
        config = engine.config
        assert config.provider_of("X", "IC") == "C"
        assert config.is_declared_external("X", "IC")
        leaves, wires = scan_document(nested_doc())
        assert_index_matches_scan(config, leaves + [x], wires + added_wires)

    def test_descriptor_operation_maps_agree_with_a_scan(self):
        for seed in range(1, 21):
            for c in load_application(generate_case(seed).config_text).components().values():
                assert c.provided_names() == frozenset(sig.name for sig in c.provided)
                assert c.provided_names() is c.provided_names()  # built once per descriptor
                for name in {o.name for o in c.operations} | {"nope"}:
                    assert c.operation_spec(name) == next((o for o in c.operations if o.name == name), None)
                for sig in c.provided:
                    for name in operation_names(sig) | {"nope"}:
                        expected = any(s.name == sig.name and name in operation_names(s) for s in c.provided)
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
        leaves, wires = scan_document(json.loads(read_fixture("demo_chain.json")))
        assert_index_matches_scan(swapped, [new_c if c.name == "C" else c for c in leaves], wires)
        assert_index_matches_scan(chain_config, leaves, wires)

    def test_with_component_replaces_a_nested_leaf_in_place_and_carries_the_indexes(self):
        config = nested_config()
        assert [c.name for c in config.leaves] == ["D", "A", "B", "C"]  # C is a leaf of outer -> inner
        new_c = replace(config.component("C"), version=2)
        swapped = config.with_component(new_c)
        assert swapped.leaves[3] is new_c
        assert all(new is old for new, old in zip(swapped.leaves[:3], config.leaves))  # the others: shared
        assert swapped.wires is config.wires
        assert "_composition" not in swapped.__dict__
        assert {name for name in CONFIGURATION_INDEXES if name in swapped.__dict__} == set(CONFIGURATION_INDEXES)
        assert carried_index_faults(swapped) == []
        assert swapped == replace(config, leaves=swapped.leaves, version=config.version + 1)
        leaves, wires = scan_document(nested_doc())
        assert_index_matches_scan(swapped, [new_c if c.name == "C" else c for c in leaves], wires)

    def test_with_component_of_a_name_not_deployed_only_bumps_the_version(self, chain_config):
        ghost = replace(chain_config.components()["C"], name="Ghost")
        bumped = chain_config.with_component(ghost)
        assert bumped == replace(chain_config, version=chain_config.version + 1)
        assert "Ghost" not in bumped.components()
        assert carried_index_faults(bumped) == []

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
        leaves, wires = scan_document(nested_doc())
        assert_index_matches_scan(before, leaves, wires)
        assert_index_matches_scan(added, leaves + [added.component("X")], wires + [Wire("X", "IC", "C")])
        assert_index_matches_scan(removed, leaves, wires)

    def test_with_added_puts_a_root_leaf_its_wires_and_container_in_one_copy(self):
        config = nested_config()
        x = parse_component(comp("X", required=["IC"]))
        added = config.with_added(x, ContainerSpec("X"), (Wire("X", "IC", "C"),))
        assert added.components()["X"] is x
        assert added.leaves == config.leaves + (x,)
        assert added.wires == config.wires + (Wire("X", "IC", "C"),)  # after the composites' wires too
        assert added.containers[-1] == ContainerSpec("X")
        assert added.provider_of("X", "IC") == "C"
        assert added.version == config.version
        assert "X" not in config.components()
        assert added.without_component("X") == config
        leaves, wires = scan_document(nested_doc())
        assert_index_matches_scan(added, leaves + [x], wires + [Wire("X", "IC", "C")])

    def test_without_component_drops_a_nested_leaf_and_every_wire_naming_it(self):
        config = nested_config()
        removed = config.without_component("C")  # a leaf of "inner", wired from "inner" and the root
        assert list(removed.components()) == ["D", "A", "B"]
        assert [c.hosted_component for c in removed.containers] == ["A", "B", "D"]
        assert all("C" not in (w.requirer, w.provider) for w in removed.wires)
        assert len(removed.wires) == len(config.wires) - 2
        assert removed.version == config.version
        assert [(f.kind, f.subject) for f in check_composition(removed).findings] == [
            ("unwired-requirement", "B"),
            ("unwired-requirement", "D"),
        ]
        leaves, wires = scan_document(nested_doc())
        assert_index_matches_scan(
            removed,
            [c for c in leaves if c.name != "C"],
            [w for w in wires if "C" not in (w.requirer, w.provider)],
        )
        assert_index_matches_scan(config, leaves, wires)

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
