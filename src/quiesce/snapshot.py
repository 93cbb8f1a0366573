"""Immutable snapshots of the running system.

A snapshot captures, at one instant: which instances are live, which
transactions touch which containers, which remote clients hold handles to
which components, and queue depths.  Snapshots are plain values; mutating
the running system never changes an existing snapshot.

Only a busy instance carries state worth a record: the operation it runs,
the cursor its effect automaton has reached and the nested call it is
blocked on.  An idle instance is just its key.  So a snapshot keeps one
``InstanceSnapshot`` per busy instance (``busy``) and a read-only map from
each component to the keys of its idle instances (``idle``), which is what
the runtime graph reads.  The engine keeps every container's keys up to
date as pools grow and swaps restart them, and it walks only the containers
with a running execution, so taking a snapshot costs what is busy, not what
is deployed.  The document format holds one record per instance, as it
always has.

Order is canonical, so equal states give equal values: busy records by
component name, and within a component the busy records and the idle keys
each in pool order (the order the engine created them in, or the document
order).  The document lists components by name, each one's busy records
and then its idle keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

from .automata import AutomatonCursor
from .documents import decode, record, typed
from .errors import ParseError
from .model import ApplicationConfiguration


@dataclass(frozen=True)
class InstanceSnapshot:
    """One pooled instance running an invocation.

    ``operation``/``cursor`` describe the invocation (``cursor`` is None
    when the operation has no effect automaton or the document gave no
    state).  ``in_flight`` names the
    (component, interface) of a nested call the instance is currently
    blocked on, if any.
    """

    key: str
    component: str
    operation: Optional[str] = None
    cursor: Optional[AutomatonCursor] = None
    in_flight: Optional[tuple[str, str]] = None


@dataclass(frozen=True)
class RuntimeSnapshot:
    time: int
    # one record per instance running an invocation, components in name order
    busy: tuple[InstanceSnapshot, ...]
    # component -> the keys of its idle instances in pool order; a component
    # with no idle instance has no entry
    idle: Mapping[str, tuple[str, ...]] = field(hash=False)
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
    """Document form of a snapshot (cursor serialized as operation + state).

    One record per instance: components in name order, each one's busy
    records and then its idle keys.
    """
    records: dict[str, list[dict]] = {}
    for inst in snap.busy:
        records.setdefault(inst.component, []).append(
            {
                "key": inst.key,
                "component": inst.component,
                "idle": False,
                "operation": inst.operation,
                "cursor_state": inst.cursor.current if inst.cursor else None,
                "in_flight": list(inst.in_flight) if inst.in_flight else None,
            }
        )
    for component, keys in snap.idle.items():
        records.setdefault(component, []).extend(
            {
                "key": key,
                "component": component,
                "idle": True,
                "operation": None,
                "cursor_state": None,
                "in_flight": None,
            }
            for key in keys
        )
    return {
        "time": snap.time,
        "instances": [doc for component in sorted(records) for doc in records[component]],
        "active_transactions": {name: list(txs) for name, txs in snap.active_transactions},
        "remote_refs": {name: list(clients) for name, clients in snap.remote_refs},
        "queue_depths": {name: depth for name, depth in snap.queue_depths},
    }


_SNAPSHOT_KEYS = frozenset({"time", "instances", "active_transactions", "remote_refs", "queue_depths"})
_INSTANCE_KEYS = frozenset({"key", "component", "idle", "operation", "cursor_state", "in_flight"})
_INSTANCE_REQUIRED = frozenset({"key", "component"})
_SNAPSHOT = "snapshot document"
_INSTANCE = "instance document"
_NULLABLE_STR = (str, type(None))


def _is_strings(value: object) -> bool:
    return type(value) is list and all(type(item) is str for item in value)


def _name_map(doc: dict, key: str, valid, values: str) -> dict:
    """The object under ``key`` once each of its values passes ``valid``."""
    mapping = typed(doc, key, (dict,), _SNAPSHOT, default={})
    if not all(valid(value) for value in mapping.values()):
        raise ParseError(f"{_SNAPSHOT}: {key!r} must map each name to {values}")
    return mapping


def snapshot_from_json(doc: dict, config: ApplicationConfiguration) -> RuntimeSnapshot:
    """Rebuild a snapshot from its document form against a configuration.

    Every field must have its JSON type: ``time`` an integer, ``key`` and
    ``component`` strings, ``idle`` a boolean (absent: busy), ``operation``
    and ``cursor_state`` a string or null, ``in_flight`` null or a
    ``[component, interface]`` pair, and ``active_transactions``,
    ``remote_refs`` and ``queue_depths`` objects; anything else is a
    ParseError naming the record and the key.  Cursor states are resolved
    against the named operation's automaton in ``config``; an instance
    running an operation with no automaton simply has no cursor (the graph
    builder treats it conservatively).  An idle instance keeps only its key.
    An instance key may appear once in the whole document.
    """
    record(doc, _SNAPSHOT_KEYS, _SNAPSHOT)
    time = typed(doc, "time", (int,), _SNAPSHOT, default=0)
    components = config.components()
    busy: list[InstanceSnapshot] = []
    idle: dict[str, list[str]] = {}
    keys: set[str] = set()
    for idoc in typed(doc, "instances", (list,), _SNAPSHOT, default=[]):
        record(idoc, _INSTANCE_KEYS, _INSTANCE, _INSTANCE_REQUIRED)
        key = typed(idoc, "key", (str,), _INSTANCE, "key")
        if key in keys:
            raise ParseError(f"{_SNAPSHOT}: instance key {key!r} appears twice")
        keys.add(key)
        component = typed(idoc, "component", (str,), _INSTANCE, "key")
        is_idle = typed(idoc, "idle", (bool,), _INSTANCE, "key", default=False)
        operation = typed(idoc, "operation", _NULLABLE_STR, _INSTANCE, "key")
        state = typed(idoc, "cursor_state", _NULLABLE_STR, _INSTANCE, "key")
        in_flight = idoc.get("in_flight")
        if in_flight is not None and not (_is_strings(in_flight) and len(in_flight) == 2):
            raise ParseError(
                f"{_INSTANCE} {key!r}: 'in_flight' must be null or a list of two strings"
            )
        if component not in components:
            raise ParseError(f"snapshot instance references unknown component {component!r}")
        cursor = None
        if operation is not None and state is not None:
            spec = components[component].operation_spec(operation)
            if spec is None:
                raise ParseError(
                    f"snapshot instance references unknown operation {component}.{operation}"
                )
            if spec.effect_automaton is not None:
                cursor = AutomatonCursor(spec.effect_automaton, state)
        if is_idle:
            idle.setdefault(component, []).append(key)
        else:
            in_flight = None if in_flight is None else tuple(in_flight)
            busy.append(InstanceSnapshot(key, component, operation, cursor, in_flight))
    busy.sort(key=lambda inst: inst.component)  # stable: pool order within a component
    active = _name_map(doc, "active_transactions", _is_strings, "a list of strings")
    refs = _name_map(doc, "remote_refs", _is_strings, "a list of strings")
    depths = _name_map(doc, "queue_depths", lambda v: type(v) is int, "an integer")
    return RuntimeSnapshot(
        time=time,
        busy=tuple(busy),
        idle=MappingProxyType({component: tuple(keys) for component, keys in idle.items()}),
        active_transactions=tuple(sorted((k, tuple(v)) for k, v in active.items())),
        remote_refs=tuple(sorted((k, tuple(v)) for k, v in refs.items())),
        queue_depths=tuple(sorted(depths.items())),
        config=config,
    )


def load_snapshot(path_text: str, config: ApplicationConfiguration) -> RuntimeSnapshot:
    return snapshot_from_json(decode(path_text, "snapshot"), config)
