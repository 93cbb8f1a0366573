from __future__ import annotations

import json

from quiesce.engine import Engine, run
from quiesce.metrics import call_latencies, compute_metrics, metrics_json_text, session_components
from quiesce.workload import parse_scenario

from builders import app, call_entry, client, comp, drain, op, scenario_doc
from conftest import read_fixture


def test_empty_run_has_zero_metrics():
    config = app([comp("S")])
    log, _ = run(config, parse_scenario(scenario_doc()), until=50)
    metrics = compute_metrics(log.events)
    assert metrics.held_count == 0
    assert metrics.aborted_transactions == 0
    assert metrics.invalidated_sessions == 0
    assert metrics.downtime == {}
    assert metrics.messages_lost == 0


def test_metrics_recomputable_from_exported_log():
    from quiesce.engine import Event
    from quiesce.model import load_application

    config = load_application(read_fixture("demo_chain.json"))
    scenario = parse_scenario(read_fixture("demo_scenario.json"))
    log, _ = run(config, scenario, until=200)
    direct = compute_metrics(log.events)
    parsed = [
        Event(doc["t"], doc["kind"], doc["payload"])
        for doc in (json.loads(line) for line in log.to_jsonl().splitlines())
    ]
    assert compute_metrics(parsed) == direct


def test_held_wait_and_downtime_fold():
    config = app([comp("S", operations=[op("work", duration=5)])])
    engine = Engine(config)
    engine.load_scenario(
        parse_scenario(scenario_doc([client("c1", call_entry(2, "S")), client("c2", call_entry(4, "S"))]))
    )
    drain(engine, "S")
    engine.run(until=6)
    engine.release_barrier("S")
    engine.run(until=30)
    metrics = compute_metrics(engine.log.events)
    assert metrics.held_count == 2
    assert metrics.held_max_wait == 4  # held at 2, replayed at 6
    assert metrics.held_mean_wait == 3.0
    assert metrics.downtime == {"S": 6}
    assert metrics.aborted_transactions == 0


def test_latencies_and_session_components(chain_config):
    scenario = parse_scenario(read_fixture("demo_scenario.json"))
    log, _ = run(chain_config, scenario, until=200)
    latencies = call_latencies(log.events)
    assert latencies["alice:1"] == 17
    assert latencies["bob:0"] == 17
    touched = session_components(log.events)
    assert touched["alice"] == {"A", "B", "C"}


def test_metrics_json_is_stable():
    config = app([comp("S")])
    log, _ = run(config, parse_scenario(scenario_doc([client("c", call_entry(0, "S"))])), until=50)
    one = metrics_json_text(compute_metrics(log.events))
    two = metrics_json_text(compute_metrics(log.events))
    assert one == two
    doc = json.loads(one)
    assert doc["aborted_transactions"] == 0
    assert doc["total_time"] == 5
