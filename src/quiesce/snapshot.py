"""Immutable snapshots of the running system.

A snapshot captures, at one instant: which instances are live and what their
effect automata still allow, which transactions touch which containers,
which remote clients hold handles to which components, and queue depths.
Snapshots are plain values; mutating the running system never changes an
existing snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automata import AutomatonCursor
from .documents import decode, record
from .errors import ParseError
from .model import ApplicationConfiguration


@dataclass(frozen=True)
class InstanceSnapshot:
    """One live pooled instance.

    ``operation``/``cursor`` describe the in-progress invocation (None when
    idle).  ``in_flight`` names the (component, interface) of a nested call
    the instance is currently blocked on, if any.
    """

    key: str
    component: str
    idle: bool
    operation: Optional[str] = None
    cursor: Optional[AutomatonCursor] = None
    in_flight: Optional[tuple[str, str]] = None


@dataclass(frozen=True)
class RuntimeSnapshot:
    time: int
    instances: tuple[InstanceSnapshot, ...]
    active_transactions: tuple[tuple[str, tuple[str, ...]], ...]
    remote_refs: tuple[tuple[str, tuple[str, ...]], ...]
    queue_depths: tuple[tuple[str, int], ...]
    config: ApplicationConfiguration

    def refs_for(self, component: str) -> frozenset[str]:
        for name, clients in self.remote_refs:
            if name == component:
                return frozenset(clients)
        return frozenset()


def snapshot_to_json(snap: RuntimeSnapshot) -> dict:
    """Document form of a snapshot (cursor serialized as operation + state)."""
    return {
        "time": snap.time,
        "instances": [
            {
                "key": inst.key,
                "component": inst.component,
                "idle": inst.idle,
                "operation": inst.operation,
                "cursor_state": inst.cursor.current if inst.cursor else None,
                "in_flight": list(inst.in_flight) if inst.in_flight else None,
            }
            for inst in snap.instances
        ],
        "active_transactions": {name: list(txs) for name, txs in snap.active_transactions},
        "remote_refs": {name: list(clients) for name, clients in snap.remote_refs},
        "queue_depths": {name: depth for name, depth in snap.queue_depths},
    }


_SNAPSHOT_KEYS = frozenset({"time", "instances", "active_transactions", "remote_refs", "queue_depths"})
_INSTANCE_KEYS = frozenset({"key", "component", "idle", "operation", "cursor_state", "in_flight"})
_INSTANCE_REQUIRED = frozenset({"key", "component"})


def snapshot_from_json(doc: dict, config: ApplicationConfiguration) -> RuntimeSnapshot:
    """Rebuild a snapshot from its document form against a configuration.

    Cursor states are resolved against the named operation's automaton in
    ``config``; an instance running an operation with no automaton simply
    has no cursor (the graph builder treats it conservatively).
    """
    record(doc, _SNAPSHOT_KEYS, "snapshot document")
    components = config.components()
    instances = []
    for idoc in doc.get("instances", []):
        record(idoc, _INSTANCE_KEYS, "instance document", _INSTANCE_REQUIRED)
        component = idoc["component"]
        if component not in components:
            raise ParseError(f"snapshot instance references unknown component {component!r}")
        cursor = None
        operation = idoc.get("operation")
        if operation is not None and idoc.get("cursor_state") is not None:
            spec = components[component].operation_spec(operation)
            if spec is None:
                raise ParseError(
                    f"snapshot instance references unknown operation {component}.{operation}"
                )
            if spec.effect_automaton is not None:
                cursor = AutomatonCursor(spec.effect_automaton, idoc["cursor_state"])
        in_flight = idoc.get("in_flight")
        instances.append(
            InstanceSnapshot(
                key=idoc["key"],
                component=component,
                idle=bool(idoc.get("idle", False)),
                operation=operation,
                cursor=cursor,
                in_flight=tuple(in_flight) if in_flight else None,
            )
        )
    return RuntimeSnapshot(
        time=int(doc.get("time", 0)),
        instances=tuple(instances),
        active_transactions=tuple(
            sorted((k, tuple(v)) for k, v in doc.get("active_transactions", {}).items())
        ),
        remote_refs=tuple(sorted((k, tuple(v)) for k, v in doc.get("remote_refs", {}).items())),
        queue_depths=tuple(sorted(doc.get("queue_depths", {}).items())),
        config=config,
    )


def load_snapshot(path_text: str, config: ApplicationConfiguration) -> RuntimeSnapshot:
    return snapshot_from_json(decode(path_text, "snapshot"), config)
