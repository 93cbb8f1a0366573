"""Seeded generators for the benchmark's application, scenario and request documents.

Every generator is a pure function of its seed and sizes and returns JSON
text, so the library sees exactly what a `quiesce redeploy` user would feed
it.  Clients are open-loop scripted sessions: each call is due at a fixed
instant regardless of how the previous one fared.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# Sizes tuned so one job takes one to two seconds on a 2-core host and a
# 40-second run holds 20 or more of them; the self-test passes much
# smaller ones.
# The swap costs are simulated time units: a longer swap keeps barriers up
# long enough that the disruption figures average over many held calls.
DEFAULT_SIZES = {
    "fanout-walk": {"depth": 10, "sessions": 50, "calls": 10, "gap": 250, "swap_cost": 200},
    "msg-burst": {"bursts": 4, "burst_size": 1000, "burst_gap": 400, "sessions": 50, "session_calls": 10},
    "rolling-redeploy": {
        "depth": 7, "sessions": 20, "calls": 30, "gap": 200, "redeploys": 100, "every": 60, "swap_cost": 40,
    },
}


@dataclass
class Documents:
    """The inputs of one job plus what the benchmark needs to run and check it."""

    workload: str
    app: str
    scenario: str
    until: int
    request: str | None = None  # `quiesce redeploy APP SCENARIO REQUEST`
    archives: list[str] = field(default_factory=list)  # `quiesce redeploy --archive`, in order
    redeploy_at: list[int] = field(default_factory=list)  # instant each archive is handed over
    module: str | None = None
    targets: list[list[str]] = field(default_factory=list)  # per request, the components it swaps
    costs: dict = field(default_factory=lambda: {"swap": 10, "sync": 5, "other": 1})
    root_calls: int = 0
    messages: int = 0


def _interface(name: str, operation: str) -> dict:
    return {"name": name, "operations": [{"name": operation, "params": [], "returns": "void"}]}


def _automaton(calls: list[tuple[str, str]], min_delay: int) -> dict | None:
    """One-step automaton: from q0 exactly one of ``calls`` fires, then q1 is final."""
    if not calls:
        return None
    return {
        "states": ["q0", "q1"],
        "initial": "q0",
        "finals": ["q1"],
        "transitions": [
            {"from": "q0", "to": "q1", "calls_interface": i, "calls_operation": o, "min_delay": min_delay}
            for i, o in calls
        ],
    }


def _component(name, kind, provided, operation, calls, duration, tx, access, **extra) -> dict:
    doc = {
        "name": name,
        "version": 1,
        "kind": kind,
        "provided": [_interface(provided, operation)],
        "required": sorted({i for i, _ in calls}),
        "operations": [
            {
                "name": operation,
                "tx_attribute": tx,
                "duration": duration,
                "effect_automaton": _automaton(calls, 1),
            }
        ],
        "access": {provided: access},
    }
    doc.update(extra)
    return doc


def _tree_components(depth: int) -> list[dict]:
    """Binary tree C0..C(2^depth - 2); each inner node calls exactly one child."""
    n = 2**depth - 1
    out = []
    for i in range(n):
        children = [c for c in (2 * i + 1, 2 * i + 2) if c < n]
        out.append(
            _component(
                f"C{i}",
                "StatelessSession",
                f"I{i}",
                "work",
                [(f"I{c}", "work") for c in children],
                duration=3,
                tx="StartsNew" if i == 0 else "Joins",
                access="Remote" if i == 0 else "Local",
            )
        )
    return out


def _tree_app(components: list[dict], pool: int) -> dict:
    wiring = [
        {"requirer": c["name"], "interface": r, "provider": "C" + r[1:]}
        for c in components
        for r in c["required"]
    ]
    containers = [{"hosted_component": c["name"], "pool_size": pool} for c in components]
    return {"version": 1, "components": components, "wiring": wiring, "containers": containers}


def _sessions(rng: random.Random, count: int, calls: int, gap: int, start: int, call: dict) -> list[dict]:
    """Open-loop sessions, each due once per ``gap`` units.

    Session starts are staggered evenly over one gap and every call is
    jittered independently by up to a tenth of the gap, so the offered load
    is steady: the number of calls arriving while a barrier is up, and hence
    the disruption figures, depend on the redeploy and not on a chance
    clump of arrivals.
    """
    clients = []
    for s in range(count):
        base = start + (s * gap) // count
        script = [
            {"at": max(0, base + k * gap + rng.randint(-gap // 10, gap // 10)), "call": dict(call)}
            for k in range(calls)
        ]
        script.sort(key=lambda e: e["at"])
        clients.append({"id": f"s{s}", "access": "Remote", "script": script})
    return clients


def fanout_walk(seed: int, depth: int, sessions: int, calls: int, gap: int, swap_cost: int) -> Documents:
    rng = random.Random(f"fanout-walk|{seed}")
    components = _tree_components(depth)
    app = _tree_app(components, pool=8)
    root_call = {"component": "C0", "interface": "I0", "operation": "work"}
    clients = _sessions(rng, sessions, calls, gap, 1, root_call)
    horizon = max(e["at"] for c in clients for e in c["script"])
    # a mid-tree component: same depth every seed, position drawn from the seed
    level = depth // 2
    target = rng.randrange(2**level - 1, 2 ** (level + 1) - 1)
    new = json.loads(json.dumps(components[target]))
    new["version"] = 2
    new["operations"][0]["duration"] = 4  # functional change
    request = {
        "id": f"swap-C{target}",
        "requested_at": horizon // 2,
        "targets": [{"component": f"C{target}", "descriptor": new}],
    }
    return Documents(
        workload="fanout-walk",
        app=json.dumps(app),
        scenario=json.dumps({"seed": rng.randrange(2**31), "clients": clients, "messages": []}),
        request=json.dumps(request),
        until=horizon + 200,
        targets=[[f"C{target}"]],
        costs={"swap": swap_cost, "sync": 5, "other": 1},
        root_calls=sessions * calls,
    )


def msg_burst(seed: int, bursts: int, burst_size: int, burst_gap: int, sessions: int, session_calls: int) -> Documents:
    rng = random.Random(f"msg-burst|{seed}")
    schema = ["c0", "c1", "c2"]
    entities, stores = [], []
    for j in range(4):
        entities.append(
            _component(
                f"E{j}", "Entity", f"IE{j}", "write", [], 2, "Joins", "Local",
                entity_schema=schema, data_store=f"S{j}",
            )
        )
        stores += [{"name": f"S{j}", "schema": schema}, {"name": f"S{j}x", "schema": schema}]
    receivers = [
        _component(
            f"M{i}", "MessageDriven", f"IM{i}", "onMessage", [(f"IE{i % 4}", "write")], 3,
            "StartsNew", "Local", queue=f"Q{i}",
        )
        for i in range(8)
    ]
    front = _component(
        "F", "StatefulSession", "IF", "call", [("IE0", "write")], 4, "StartsNew", "Remote",
        state_fields=["last"],
    )
    components = [front] + receivers + entities
    wiring = [{"requirer": "F", "interface": "IE0", "provider": "E0"}] + [
        {"requirer": f"M{i}", "interface": f"IE{i % 4}", "provider": f"E{i % 4}"} for i in range(8)
    ]
    containers = (
        [{"hosted_component": "F", "pool_size": 64}]
        + [{"hosted_component": f"M{i}", "pool_size": 4} for i in range(8)]
        + [{"hosted_component": f"E{j}", "pool_size": 8} for j in range(4)]
    )
    app = {
        "version": 1,
        "components": components,
        "wiring": wiring,
        "containers": containers,
        "data_stores": stores,
        "queues": [f"Q{i}" for i in range(8)],
    }
    horizon = bursts * burst_gap
    # every queue gets the same share of a burst, in a seeded order, so the
    # backlog a barrier meets is the same size on every seed
    messages = []
    for b in range(bursts):
        at = burst_gap // 2 + b * burst_gap
        queues = [k % 8 for k in range(burst_size)]
        rng.shuffle(queues)
        for k, q in enumerate(queues):
            messages.append({"queue": f"Q{q}", "payload": f"b{b}m{k}", "at": at})
    front_call = {"component": "F", "interface": "IF", "operation": "call"}
    clients = _sessions(rng, sessions, session_calls, horizon // session_calls, 1, front_call)
    # mid-run, while the middle burst is still draining
    mid = bursts // 2
    requested_at = burst_gap // 2 + mid * burst_gap + burst_gap // 4
    new_e0 = json.loads(json.dumps(entities[0]))
    new_e0.update(version=2, data_store="S0x")
    new_m0 = json.loads(json.dumps(receivers[0]))
    new_m0["version"] = 2
    new_m0["operations"][0]["duration"] = 2  # functional change
    request = {
        "id": "migrate-E0-swap-M0",
        "requested_at": requested_at,
        "targets": [
            {"component": "E0", "descriptor": new_e0},
            {"component": "M0", "descriptor": new_m0},
        ],
        "entity_migration": [
            {"component": "E0", "shadow_store": "S0x", "column_mapping": {c: c for c in schema}}
        ],
    }
    return Documents(
        workload="msg-burst",
        app=json.dumps(app),
        scenario=json.dumps({"seed": rng.randrange(2**31), "clients": clients, "messages": messages}),
        request=json.dumps(request),
        until=horizon + burst_gap,
        targets=[["E0", "M0"]],
        root_calls=sessions * session_calls,
        messages=len(messages),
    )


def rolling_redeploy(
    seed: int, depth: int, sessions: int, calls: int, gap: int, redeploys: int, every: int, swap_cost: int
) -> Documents:
    rng = random.Random(f"rolling-redeploy|{seed}")
    components = _tree_components(depth)
    app = _tree_app(components, pool=8)
    first = 2 * every
    horizon = first + redeploys * every
    root_call = {"component": "C0", "interface": "I0", "operation": "work"}
    clients = _sessions(rng, sessions, calls, gap, 1, root_call)
    # targets spread over the tree: every depth band in turn, a random node in it
    versions = [1] * len(components)
    current = json.loads(json.dumps(components))
    archives, at, targets = [], [], []
    for k in range(redeploys):
        level = k % depth
        target = rng.randrange(2**level - 1, 2 ** (level + 1) - 1)
        versions[target] += 1
        current[target] = dict(current[target], version=versions[target])
        archives.append(json.dumps({"module": "app", "version": k + 2, "components": current}))
        at.append(first + k * every)
        targets.append([f"C{target}"])
    return Documents(
        workload="rolling-redeploy",
        app=json.dumps(app),
        scenario=json.dumps({"seed": rng.randrange(2**31), "clients": clients, "messages": []}),
        archives=archives,
        redeploy_at=at,
        module="app",
        targets=targets,
        costs={"swap": swap_cost, "sync": 5, "other": 1},
        until=max(horizon, max(e["at"] for c in clients for e in c["script"])) + 200,
        root_calls=sessions * calls,
    )


GENERATORS = {
    "fanout-walk": fanout_walk,
    "msg-burst": msg_burst,
    "rolling-redeploy": rolling_redeploy,
}


def generate(workload: str, seed: int, sizes: dict | None = None) -> Documents:
    return GENERATORS[workload](seed, **(sizes or DEFAULT_SIZES[workload]))
