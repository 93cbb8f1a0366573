"""Every loader follows one document rule, and snapshots survive their document form.

The malformed-document table mutates every record object of the fixtures
(and of one extra set that covers composites, stores, queues, QoS changes,
migrations and messages): it drops each key the parser must read, adds an
unknown key, and replaces the record with a non-object.  Each mutant must be
refused with a ParseError whose text names the fault; any other exception
would reach the CLI user as a traceback.
"""

from __future__ import annotations

import copy
import json

import pytest

from quiesce.documents import record
from quiesce.engine import Engine
from quiesce.errors import ParseError
from quiesce.lifecycle import parse_archive
from quiesce.manager import parse_request
from quiesce.model import load_application
from quiesce.snapshot import load_snapshot, snapshot_to_json
from quiesce.workload import parse_scenario

from builders import appdoc, auto, call_entry, client, comp, iface, op, scenario_doc
from conftest import read_fixture
from gen import generate_case

# objects whose keys are names, not a record's fields
FREE_FORM = {"access", "column_mapping", "remote_refs", "queue_depths", "active_transactions"}

# record role (the key it sits under) -> the keys its parser reads unconditionally
REQUIRED = {
    "components": {"name", "kind"},
    "descriptor": {"name", "kind"},
    "provided": {"name"},
    "operations": {"name"},  # interface operations and operation specs alike
    "effect_automaton": {"states", "initial", "finals", "transitions"},
    "transitions": {"from", "to", "calls_interface", "calls_operation", "min_delay"},
    "wiring": {"requirer", "interface"},
    "internal_wiring": {"requirer", "interface"},
    "composites": {"name"},
    "containers": {"hosted_component"},
    "data_stores": {"name"},
    "targets": {"component"},
    "qos_changes": {"component", "pool_size"},
    "entity_migration": {"component", "shadow_store"},
    "clients": {"id"},
    "call": {"component", "interface", "operation"},
    "messages": {"queue", "at"},
    "instances": {"key", "component"},
}
ROOT_REQUIRED = {"application": {"components"}, "archive": {"module"}}

# record role (the document kind for a root) -> key -> (a value of the wrong type,
# the end of the expected error text), for the fields their readers type
WRONG_TYPE = {
    "components": {
        "version": ("2", "'version' must be an integer"),
        "required": (5, "'required' must be a list"),
        "state_fields": ("a", "'state_fields' must be a list"),
        "entity_schema": ({}, "'entity_schema' must be a list"),
        "access": (["x"], "'access' must be an object"),
    },
    "descriptor": {
        "version": (2.0, "'version' must be an integer"),
        "required": (["IB", 5], "'required' must be a list of strings"),
        "state_fields": ([None], "'state_fields' must be a list of strings"),
        "entity_schema": ([["c"]], "'entity_schema' must be a list of strings"),
        "access": ("Local", "'access' must be an object"),
    },
    "operations": {"duration": ("abc", "'duration' must be an integer")},
    "transitions": {"min_delay": (True, "'min_delay' must be an integer")},
    "provided/operations": {
        "params": ("ab", "'params' must be a list"),
        "returns": (["void"], "'returns' must be a string"),
    },
    "containers": {
        "hosted_component": (1, "'hosted_component' must be a string"),
        "pool_size": ("x", "'pool_size' must be an integer"),
        "interceptor_chain": ("Pooling", "'interceptor_chain' must be a list"),
    },
    "snapshot": {
        "time": ("abc", "'time' must be an integer"),
        "instances": ({}, "'instances' must be a list"),
        "active_transactions": ([], "'active_transactions' must be an object"),
        "remote_refs": ([], "'remote_refs' must be an object"),
        "queue_depths": ([], "'queue_depths' must be an object"),
    },
    "instances": {
        "key": (1, "'key' must be a string"),
        "component": (["A"], "'component' must be a string"),
        "idle": ("no", "'idle' must be a boolean"),
        "operation": (1, "'operation' must be a string or null"),
        "cursor_state": (True, "'cursor_state' must be a string or null"),
        "in_flight": (["C"], "'in_flight' must be null or a list of two strings"),
    },
    "request": {
        "id": (1, "'id' must be a string"),
        "requested_at": ("x", "'requested_at' must be an integer"),
        "targets": ({}, "'targets' must be a list"),
        "qos_changes": ("B", "'qos_changes' must be a list"),
        "entity_migration": (None, "'entity_migration' must be a list"),
    },
    "targets": {
        "component": (7, "'component' must be a string"),
        "descriptor_file": (["c.json"], "'descriptor_file' must be a string"),
    },
    "qos_changes": {
        "component": (["S"], "'component' must be a string"),
        "pool_size": ("x", "'pool_size' must be an integer"),
    },
    "archive": {
        "module": (7, "'module' must be a string"),
        "version": ("x", "'version' must be an integer"),
        "components": ({}, "'components' must be a list"),
    },
    "entity_migration": {
        "component": (1, "'component' must be a string"),
        "shadow_store": (2, "'shadow_store' must be a string"),
        "column_mapping": ([["c", "c"]], "'column_mapping' must be an object"),
    },
}


def role(kind: str, path: tuple) -> str:
    """The key a record sits under; the document kind for the root record (a WRONG_TYPE key).

    An interface operation is ``provided/operations``, apart from a component's operations.
    """
    roles = [step for step in path if isinstance(step, str)]
    if roles[-2:] == ["provided", "operations"]:
        return "provided/operations"
    return roles[-1] if roles else kind


def required_keys(kind: str, path: tuple, rec: dict) -> set[str]:
    roles = [step for step in path if isinstance(step, str)]
    if not roles:
        return ROOT_REQUIRED.get(kind, set())
    if roles[-1] == "script":
        return {"at", "call"} if "call" in rec else {"at", "home", "component"}
    return REQUIRED[roles[-1]]


def records(doc, path: tuple = ()):
    """(path, object) for every record object in ``doc``, outermost first."""
    if isinstance(doc, dict):
        yield path, doc
        for key, value in doc.items():
            if key not in FREE_FORM:
                yield from records(value, path + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from records(value, path + (index,))


def replaced(doc, path: tuple, value):
    if not path:
        return value
    out = copy.deepcopy(doc)
    holder = out
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]] = value
    return out


def mutants(kind: str, doc):
    """(description, mutated document, the end of the expected error text)."""
    for path, rec in records(doc):
        for key in sorted(required_keys(kind, path, rec)):
            dropped = {k: v for k, v in rec.items() if k != key}
            # a script entry without its 'call' or 'home' no longer says what it is
            ending = "either 'call' or 'home'" if key in ("call", "home") else f"missing keys: [{key!r}]"
            yield f"{path} without {key!r}", replaced(doc, path, dropped), ending
        yield f"{path} with 'bogus'", replaced(doc, path, {**rec, "bogus": 1}), "['bogus']"
        for key, (value, ending) in WRONG_TYPE.get(role(kind, path), {}).items():
            yield f"{path} with {key!r} {value!r}", replaced(doc, path, {**rec, key: value}), ending
        for value in ([], 1):
            yield f"{path} as {value!r}", replaced(doc, path, value), "must be a JSON object"


def chain_archive() -> str:
    components = json.loads(read_fixture("demo_chain.json"))["components"]
    return json.dumps({"module": "chain", "version": 2, "components": components})


def covering_documents() -> dict[str, str]:
    """Records the fixtures lack: composites, stores, queues, QoS changes, migrations, messages."""
    entity = comp("E", kind="Entity", provided=[iface("IE", "put")], operations=[op("put", tx="Joins")],
                  entity_schema=["c"], data_store="db")
    application = appdoc(
        [
            comp("S", required=["IE"], operations=[op("work", automaton=auto([("q0", "IE", "put", 1, "q1")]))]),
            entity,
            comp("M", kind="MessageDriven", provided=[iface("IM", "on")], operations=[op("on")], queue="jobs"),
        ],
        composites=[{"name": "grp", "children": ["S", "E"],
                     "internal_wiring": [{"requirer": "S", "interface": "IE", "provider": "E"}]}],
        data_stores=[{"name": "db", "schema": ["c"]}, {"name": "db2", "schema": ["c"]}],
        queues=["jobs"],
    )
    request = json.dumps(
        {
            "id": "r",
            "requested_at": 0,
            "targets": [{"component": "E", "descriptor": {**entity, "version": 2}}],
            "qos_changes": [{"component": "S", "pool_size": 2}],
            "entity_migration": [{"component": "E", "shadow_store": "db2", "column_mapping": {"c": "c"}}],
        }
    )
    scenario = json.dumps({"seed": 1, "clients": [], "messages": [{"queue": "jobs", "payload": "m", "at": 1}]})
    return {"application": application, "request": request, "scenario": scenario}


def parser(kind: str, app_fixture: str | None = None):
    if kind == "snapshot":
        config = load_application(read_fixture(app_fixture))
        return lambda text: load_snapshot(text, config)
    return {
        "application": load_application,
        "archive": parse_archive,
        "request": parse_request,
        "scenario": parse_scenario,
    }[kind]


CASES = [
    ("application", "demo_chain.json", None),
    ("application", "diamond_app.json", None),
    ("application", "late_app.json", None),
    ("scenario", "demo_scenario.json", None),
    ("request", "demo_request.json", None),
    ("snapshot", "chain_snapshot.json", "demo_chain.json"),
    ("snapshot", "past_snapshot.json", "demo_chain.json"),
    ("snapshot", "diamond_snapshot.json", "diamond_app.json"),
    ("snapshot", "late_snapshot.json", "late_app.json"),
    ("archive", "<demo_chain archive>", None),
    ("application", "<covering>", None),
    ("request", "<covering>", None),
    ("scenario", "<covering>", None),
]


def document_text(kind: str, name: str) -> str:
    if name == "<demo_chain archive>":
        return chain_archive()
    if name == "<covering>":
        return covering_documents()[kind]
    return read_fixture(name)


def refusal_fault(parse, text: str, ending: str) -> str | None:
    """What is wrong with how ``parse`` refuses ``text``; None for a ParseError ending in ``ending``."""
    try:
        parse(text)
    except ParseError as exc:
        return None if str(exc).endswith(ending) else str(exc)
    except Exception as exc:  # any other type is the defect under test
        return f"{type(exc).__name__}: {exc}"
    return "loaded"


class TestMalformedDocuments:
    @pytest.mark.parametrize("kind,name,app_fixture", CASES, ids=[f"{k}:{n}" for k, n, _ in CASES])
    def test_every_record_mutant_is_a_parse_error(self, kind, name, app_fixture):
        parse = parser(kind, app_fixture)
        doc = json.loads(document_text(kind, name))
        parse(json.dumps(doc))  # the unmutated document loads
        wrong, count = [], 0
        for what, mutant, ending in mutants(kind, doc):
            count += 1
            fault = refusal_fault(parse, json.dumps(mutant), ending)
            if fault is not None:
                wrong.append(f"{what}: {fault}")
        assert count > 0
        assert wrong == []

    def test_archive_mutants_fail_alike_right_after_the_unmutated_archive(self):
        """parse_archive reuses the descriptors of unchanged components; a mutant never is one."""
        text = chain_archive()
        wrong, count = [], 0
        for what, mutant, ending in mutants("archive", json.loads(text)):
            count += 1
            parse_archive(text)  # each component's last parsed document is the unmutated one
            for attempt in ("first", "again"):
                fault = refusal_fault(parse_archive, json.dumps(mutant), ending)
                if fault is not None:
                    wrong.append(f"{what} ({attempt}): {fault}")
        assert count > 0
        assert wrong == []

    def test_error_texts(self):
        chain = json.loads(read_fixture("demo_chain.json"))
        cases = [
            (load_application, "[]", "application document must be a JSON object"),
            (load_application, "{}", "application document missing keys: ['components']"),
            (load_application, json.dumps(replaced(chain, ("components", 0), {**chain["components"][0], "x": 1})),
             "unknown keys in component 'A': ['x']"),
            (load_application, json.dumps(replaced(chain, ("components", 0, "kind"), None)),
             "component 'A': unknown kind None"),
            *(
                (load_application, json.dumps(replaced(chain, ("containers", 0, "pool_size"), size)),
                 "container 'A': 'pool_size' must be an integer")
                for size in ("4", 4.0, True)
            ),
            # the scalars the component parser keeps as numbers: JSON true is no integer
            *(
                (load_application, json.dumps(replaced(chain, ("components", 0, "version"), version)),
                 "component 'A': 'version' must be an integer")
                for version in ("2", 2.0, True)
            ),
            # the name lists and the access object: a wrong type used to end in TypeError or AttributeError
            *(
                (load_application, json.dumps(replaced(chain, ("components", 0, key), value)),
                 f"component 'A': {key!r} must be {expected}")
                for key, value, expected in (
                    ("required", 5, "a list"),
                    ("required", "IB", "a list"),
                    ("required", ["IB", 5], "a list of strings"),
                    ("state_fields", {"a": 1}, "a list"),
                    ("state_fields", [None], "a list of strings"),
                    ("entity_schema", True, "a list"),
                    ("entity_schema", [["c"]], "a list of strings"),
                    ("access", ["x"], "an object"),
                    ("access", "Remote", "an object"),
                )
            ),
            *(
                (load_application, json.dumps(replaced(chain, ("components", 0, "operations", 0, "duration"), duration)),
                 "operation 'frontWork': 'duration' must be an integer")
                for duration in ("abc", 10.5, True)
            ),
            *(
                (load_application,
                 json.dumps(replaced(chain, ("components", 0, "operations", 0, "effect_automaton", "transitions", 0,
                                             "min_delay"), delay)),
                 "transition document: 'min_delay' must be an integer")
                for delay in ("2", 2.0, True, None)
            ),
            (parse_archive, '{"components": []}', "archive document missing keys: ['module']"),
            (parse_archive, '{"module": 7}', "archive document: 'module' must be a string"),
            *(
                (parse_archive, json.dumps({"module": "m", "version": version}),
                 "archive document: 'version' must be an integer")
                for version in ("x", "2", 2.5, 2.0, True)
            ),
            (parse_archive, '{"module": "m", "components": {"A": {}}}',
             "archive document: 'components' must be a list"),
            # [1] right after [true]: both refused, so the archive cache cannot hand one the other's descriptor
            *(
                (parse_archive,
                 json.dumps(replaced(json.loads(chain_archive()),
                                     ("components", 0, "provided", 0, "operations", 0, "params"), params)),
                 "interface operation 'frontWork': 'params' must be a list of strings")
                for params in ([True], [1], ["a", None])
            ),
            (parse_scenario, '{"clients": [{"id": "c", "script": [{"at": 1}]}]}',
             "script entry needs either 'call' or 'home'"),
            (parse_request, '{"targets": [{"component": "C", "descriptor_file": "c.json"}]}',
             "descriptor_file given but no file loader available"),
            (lambda text: parse_request(text, file_loader=lambda rel: "{nope"),
             '{"targets": [{"component": "C", "descriptor_file": "c.json"}]}',
             "invalid descriptor JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            (parse_request, '{"targets": [{"component": 7}]}',
             "target document 7: 'component' must be a string"),
            *(
                (parse_request, json.dumps({"requested_at": at, "targets": [{"component": "C"}]}),
                 "request document: 'requested_at' must be an integer")
                for at in ("8", 8.0, True)
            ),
            *(
                (parse_request, json.dumps({"qos_changes": [{"component": "B", "pool_size": size}]}),
                 "qos document 'B': 'pool_size' must be an integer")
                for size in ("8", 8.0, True)
            ),
            (parse_request,
             json.dumps({"qos_changes": [{"component": "B", "pool_size": 2}],
                         "entity_migration": [{"component": "E", "shadow_store": "s", "column_mapping": {"c": 1}}]}),
             "migration document 'E': 'column_mapping' must map each column to a string"),
        ]
        snapshot = json.loads(read_fixture("chain_snapshot.json"))
        chain_config = load_application(read_fixture("demo_chain.json"))
        cases += [
            (lambda text: load_snapshot(text, chain_config), json.dumps(doc), expected)
            for doc, expected in [
                ({"time": "abc", "instances": []}, "snapshot document: 'time' must be an integer"),
                ({**snapshot, "time": True}, "snapshot document: 'time' must be an integer"),
                ({**snapshot, "remote_refs": []}, "snapshot document: 'remote_refs' must be an object"),
                ({**snapshot, "remote_refs": {"C": "r1"}},
                 "snapshot document: 'remote_refs' must map each name to a list of strings"),
                ({**snapshot, "active_transactions": {"C": [1]}},
                 "snapshot document: 'active_transactions' must map each name to a list of strings"),
                ({**snapshot, "queue_depths": {"q": "3"}},
                 "snapshot document: 'queue_depths' must map each name to an integer"),
                (replaced(snapshot, ("instances", 0, "idle"), "no"),
                 "instance document 'A#0': 'idle' must be a boolean"),
                (replaced(snapshot, ("instances", 1, "in_flight"), ["C", 1]),
                 "instance document 'B#0': 'in_flight' must be null or a list of two strings"),
                (replaced(snapshot, ("instances", 1, "in_flight"), []),
                 "instance document 'B#0': 'in_flight' must be null or a list of two strings"),
                # one key twice, even under another component, would let one
                # component's runtime edges stand in for the other's
                ({**snapshot, "instances": snapshot["instances"] + [
                    snapshot["instances"][0], {"key": "A#0", "component": "C", "idle": True}]},
                 "snapshot document: instance key 'A#0' appears twice"),
                ({**snapshot, "instances": snapshot["instances"] + [{"key": "C#0", "component": "C", "idle": True}]},
                 "snapshot document: instance key 'C#0' appears twice"),
            ]
        ]
        for parse, text, expected in cases:
            with pytest.raises(ParseError) as info:
                parse(text)
            assert str(info.value) == expected

    def test_record_builds_no_text_for_a_valid_record(self):
        class Loud(dict):
            def get(self, *args):
                raise AssertionError("error text built for a valid record")

        doc = Loud(name="A", kind="Entity")
        assert record(doc, frozenset({"name", "kind"}), "component", frozenset({"name"}), "name") is doc


class TestSnapshotDocumentRoundTrip:
    def assert_round_trips(self, engine: Engine, instants, seen: dict) -> None:
        for t in instants:
            engine.run(until=t)
            snap = engine.snapshot()
            assert load_snapshot(json.dumps(snapshot_to_json(snap)), engine.config) == snap, f"t={t}"
            seen["busy"] += len(snap.busy)
            seen["in_flight"] += sum(1 for inst in snap.busy if inst.in_flight is not None)
            seen["remote_refs"] += len(snap.remote_refs)
            seen["queued"] += sum(depth for _, depth in snap.queue_depths)

    def test_a_busy_instance_behind_an_idle_one_in_pool_order(self):
        engine = Engine(load_application(appdoc([comp("S", operations=[op("work", duration=5)])])))
        clients = [client("c0", call_entry(0, "S")), client("c1", call_entry(2, "S"))]
        engine.load_scenario(parse_scenario(scenario_doc(clients)))
        engine.run(until=5)  # S#0 has finished c0's call, S#1 still runs c1's
        assert [i.key for i in engine.containers["S"].instances] == ["S#0", "S#1"]
        snap = engine.snapshot()
        assert [i.key for i in snap.busy] == ["S#1"] and dict(snap.idle) == {"S": ("S#0",)}
        doc = snapshot_to_json(snap)
        assert [(i["key"], i["idle"]) for i in doc["instances"]] == [("S#1", False), ("S#0", True)]
        assert load_snapshot(json.dumps(doc), engine.config) == snap
        # a document listing the idle instance first reads back in the same order
        doc["instances"].reverse()
        assert load_snapshot(json.dumps(doc), engine.config) == snap

    def test_demo_chain_mid_run(self):
        scenario = parse_scenario(read_fixture("demo_scenario.json"))
        engine = Engine(load_application(read_fixture("demo_chain.json")), seed=scenario.seed)
        engine.load_scenario(scenario)
        seen = dict.fromkeys(("busy", "in_flight", "remote_refs", "queued"), 0)
        self.assert_round_trips(engine, range(0, 60, 3), seen)
        assert seen["busy"] and seen["in_flight"] and seen["remote_refs"]

    def test_generated_seeds(self):
        seen = dict.fromkeys(("busy", "in_flight", "remote_refs", "queued"), 0)
        for seed in range(1, 21):
            case = generate_case(seed)
            scenario = parse_scenario(case.scenario_text)
            engine = Engine(load_application(case.config_text), seed=scenario.seed)
            engine.load_scenario(scenario)
            self.assert_round_trips(engine, range(0, 150, 7), seen)
            for queue in engine.config.queues:
                engine.pause_queue(queue)  # later messages wait in the queue
            self.assert_round_trips(engine, range(150, 300, 7), seen)
        assert all(seen.values()), seen
