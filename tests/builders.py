"""Document builders for tests, a drain driver over the engine's public API,
and readers of public state that only tests need.

Everything goes through the public JSON loader, so every test config also
exercises parsing and validation.
"""

from __future__ import annotations

import json

from quiesce.engine import BARRIER_CLOSED, Engine, Event
from quiesce.errors import DrainTimeout
from quiesce.lifecycle import DeploymentManager, ModuleState
from quiesce.model import ApplicationConfiguration, InterfaceSignature, load_application


def iface(name: str, *ops: str) -> dict:
    return {
        "name": name,
        "operations": [{"name": op, "params": [], "returns": "void"} for op in ops],
    }


def auto(transitions, initial: str = "q0", finals=None, states=None) -> dict:
    """Automaton from (from, interface, operation, min_delay, to) tuples."""
    trans = [
        {
            "from": frm,
            "to": to,
            "calls_interface": interface,
            "calls_operation": operation,
            "min_delay": delay,
        }
        for frm, interface, operation, delay, to in transitions
    ]
    if states is None:
        states = sorted({t["from"] for t in trans} | {t["to"] for t in trans} | {initial})
    if finals is None:
        sources = {t["from"] for t in trans}
        finals = sorted(set(states) - sources) or [states[-1]]
    return {"states": list(states), "initial": initial, "finals": list(finals), "transitions": trans}


def op(name: str, tx: str = "StartsNew", duration: int = 5, automaton: dict | None = None) -> dict:
    return {"name": name, "tx_attribute": tx, "duration": duration, "effect_automaton": automaton}


def comp(
    name: str,
    kind: str = "StatelessSession",
    provided: list | None = None,
    required: list | None = None,
    operations: list | None = None,
    access: dict | None = None,
    version: int = 1,
    **extra,
) -> dict:
    doc = {
        "name": name,
        "version": version,
        "kind": kind,
        "provided": provided if provided is not None else [iface(f"I{name}", "work")],
        "required": required or [],
        "operations": operations if operations is not None else [op("work")],
        "access": access or {},
    }
    doc.update(extra)
    return doc


def appdoc(
    components: list,
    wiring: list | None = None,
    containers: list | None = None,
    data_stores: list | None = None,
    queues: list | None = None,
    composites: list | None = None,
    version: int = 1,
) -> str:
    if containers is None:
        containers = [{"hosted_component": c["name"], "pool_size": 4} for c in components]
    doc = {
        "version": version,
        "components": components,
        "composites": composites or [],
        "wiring": [
            {"requirer": r, "interface": i, "provider": p} for r, i, p in (wiring or [])
        ],
        "containers": containers,
        "data_stores": data_stores or [],
        "queues": queues or [],
    }
    return json.dumps(doc)


def app(*args, **kwargs) -> ApplicationConfiguration:
    return load_application(appdoc(*args, **kwargs))


def tree_components(depth: int, pool: int = 4) -> tuple[list, list, list]:
    """Binary tree C0..C(2^depth - 2) as (components, wiring, containers).

    Each inner node calls its left child and then its right one, so a busy
    node's cursor can stand before, between or after its two calls.
    """
    n = 2**depth - 1
    components, wiring = [], []
    for i in range(n):
        children = [c for c in (2 * i + 1, 2 * i + 2) if c < n]
        steps = [(f"q{k}", f"IC{c}", "work", k + 1, f"q{k + 1}") for k, c in enumerate(children)]
        automaton = auto(steps) if steps else None
        components.append(
            comp(
                f"C{i}",
                required=[f"IC{c}" for c in children],
                operations=[op("work", tx="StartsNew" if i == 0 else "Joins", duration=4, automaton=automaton)],
                access={f"IC{i}": "Remote" if i == 0 else "Local"},
            )
        )
        wiring.extend((f"C{i}", f"IC{c}", f"C{c}") for c in children)
    containers = [{"hosted_component": c["name"], "pool_size": pool} for c in components]
    return components, wiring, containers


def scenario_doc(clients=None, messages=None, seed: int = 0) -> str:
    return json.dumps({"seed": seed, "clients": clients or [], "messages": messages or []})


def call_entry(at: int, component: str, operation: str = "work", interface: str | None = None) -> dict:
    return {
        "at": at,
        "call": {
            "component": component,
            "interface": interface or f"I{component}",
            "operation": operation,
        },
    }


def client(cid: str, *entries: dict, access: str = "Remote") -> dict:
    return {"id": cid, "access": access, "script": list(entries)}


def drain(engine: Engine, component: str) -> int:
    """Barricade ``component`` and run until it quiesces; return the instant it closed.

    Raises DrainTimeout, with the barrier released, when the drain does not
    finish within the engine's drain timeout.
    """
    engine.activate_barrier(component)
    limit = engine.clock + engine.drain_timeout

    def closed() -> bool:
        return engine.barrier_state(component) == BARRIER_CLOSED

    engine.run(until=limit, stop_when=closed)  # stops at the closing instant
    if not closed():
        engine.release_barrier(component)
        raise DrainTimeout(f"container {component!r} did not quiesce by {limit}")
    return engine.clock


def store_contents(engine: Engine, name: str) -> dict[str, dict[str, str]]:
    """A copy of data store ``name``'s rows."""
    return {k: dict(v) for k, v in engine.stores[name].items()}


def state_of(manager: DeploymentManager, module: str) -> ModuleState:
    record = manager.modules.get(module)
    return record.state if record else ModuleState.UNDEPLOYED


def operation_names(signature: InterfaceSignature) -> frozenset[str]:
    return frozenset(operation.name for operation in signature.operations)


def call_latencies(events: list[Event], sessions: set[str] | None = None) -> dict[str, int]:
    """Per root client call latency: InvocationEnd time minus submission time.

    Keyed by invocation id; restricted to the given sessions when provided.
    Calls of nested invocations (dotted ids) are excluded.
    """
    out: dict[str, int] = {}
    for event in events:
        if event.kind != "InvocationEnd":
            continue
        inv_id = event.payload["id"]
        if "." in inv_id or ":" not in inv_id:
            continue
        session = event.payload.get("session")
        if session is None:
            continue
        if sessions is not None and session not in sessions:
            continue
        out[inv_id] = event.t - event.payload["submitted_at"]
    return out


def session_components(events: list[Event]) -> dict[str, set[str]]:
    """Components each session's call trees touched (including attempts)."""
    out: dict[str, set[str]] = {}
    for event in events:
        if event.kind in ("InvocationStart", "InvocationHeld", "InvocationDenied"):
            session = event.payload.get("session")
            component = event.payload.get("component")
            if session and component:
                out.setdefault(session, set()).add(component)
    return out


def plan_span(events: list[Event]) -> list[Event]:
    """One completed plan's own events: from its first barrier activation to its last release."""
    kinds = [event.kind for event in events]
    first = kinds.index("BarrierActivated")
    last = len(kinds) - kinds[::-1].index("BarrierReleased")
    return events[first:last]
