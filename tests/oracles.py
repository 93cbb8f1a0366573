"""Independent oracles the implementation is checked against.

Each oracle recomputes an answer by brute force over the same model
semantics, sharing no code path with the operation it verifies.
"""

from __future__ import annotations

import copy
from functools import cached_property
from types import MappingProxyType

from quiesce.automata import AutomatonCursor, CallLabel, ServiceEffectAutomaton
from quiesce.depgraph import ReconfigurationWindow, RuntimeDependencyGraph, RuntimeEdge
from quiesce.engine import Engine
from quiesce.errors import ValidationError
from quiesce.model import ApplicationConfiguration, ComponentKind, ConsistencyReport, check_composition
from quiesce.snapshot import InstanceSnapshot, RuntimeSnapshot


def enumerate_earliest(cursor: AutomatonCursor, call: CallLabel) -> int | None:
    """Minimum prefix delay to ``call`` by exhaustive simple-path enumeration.

    Delays are non-negative, so some minimum-cost path never revisits a
    state; enumerating simple paths (with the matching transition allowed to
    close a cycle as the final step) is exhaustive.
    """
    auto = cursor.automaton
    best: int | None = None

    def visit(state: str, cost: int, seen: frozenset[str]) -> None:
        nonlocal best
        for t in auto.outgoing(state):
            if t.label == call and (best is None or cost < best):
                best = cost
        for t in auto.outgoing(state):
            if t.target not in seen:
                visit(t.target, cost + t.min_delay, seen | {t.target})

    visit(cursor.current, 0, frozenset({cursor.current}))
    return best


def enumerate_reachable(cursor: AutomatonCursor) -> frozenset[CallLabel]:
    """Labels reachable from the cursor, by simple-path enumeration."""
    auto = cursor.automaton
    found: set[CallLabel] = set()

    def visit(state: str, seen: frozenset[str]) -> None:
        for t in auto.outgoing(state):
            found.add(t.label)
            if t.target not in seen:
                visit(t.target, seen | {t.target})

    visit(cursor.current, frozenset({cursor.current}))
    return frozenset(found)


def reference_runtime_graph(
    snapshot: RuntimeSnapshot, window: ReconfigurationWindow
) -> RuntimeDependencyGraph:
    """The runtime graph recomputed per instance and per label, no table shared.

    Same pruning rules as ``depgraph.build_runtime_graph``: each idle key,
    worked out on its own, contributes, per call label, the minimum
    earliest occurrence over its operations' initial states; a busy instance
    with a cursor contributes each label's earliest occurrence from the
    cursor plus its in-flight call; an operation without an automaton falls
    back to every static edge.  Earliest occurrences come from
    ``enumerate_earliest``.  The deduplicated, sorted edges are handed to
    the graph view as one group per instance.
    """
    config = snapshot.config
    components = config.components()
    edges: list[RuntimeEdge] = []

    def add_edge(instance: str, component: str, interface: str, earliest: int) -> None:
        provider = config.provider_of(component, interface)
        if provider is not None:
            edges.append(RuntimeEdge(instance, component, provider, interface, earliest))

    def add_static_fallback(instance: str, component: str) -> None:
        for interface in components[component].required:
            add_edge(instance, component, interface, window.start)

    def alphabet(automaton: ServiceEffectAutomaton) -> list[CallLabel]:
        return sorted({t.label for t in automaton.transitions})

    for component, keys in snapshot.idle.items():
        descriptor = components.get(component)
        if descriptor is None:
            continue
        for key in keys:
            fallback = False
            labels: dict[tuple[str, str], int] = {}
            for spec in descriptor.operations:
                if spec.effect_automaton is None:
                    fallback = True
                    continue
                cursor = spec.effect_automaton.cursor()
                for label in alphabet(spec.effect_automaton):
                    e = enumerate_earliest(cursor, label)
                    if e is not None and (label not in labels or e < labels[label]):
                        labels[label] = e
            for (interface, _operation), e in sorted(labels.items()):
                if window.contains(window.start + e):
                    add_edge(key, component, interface, window.start + e)
            if fallback:
                add_static_fallback(key, component)

    for inst in snapshot.busy:
        if components.get(inst.component) is None:
            continue
        if inst.in_flight is not None:
            callee, interface = inst.in_flight
            edges.append(RuntimeEdge(inst.key, inst.component, callee, interface, window.start))
        if inst.cursor is None:
            add_static_fallback(inst.key, inst.component)
            continue
        for label in alphabet(inst.cursor.automaton):
            e = enumerate_earliest(inst.cursor, label)
            if e is not None and window.contains(window.start + e):
                add_edge(inst.key, inst.component, label.interface, window.start + e)

    dedup: dict[tuple, RuntimeEdge] = {}
    for edge in edges:
        key = (edge.caller_instance, edge.callee, edge.interface)
        if key not in dedup or edge.earliest < dedup[key].earliest:
            dedup[key] = edge
    nodes = tuple(
        sorted(
            [(inst.key, inst.component) for inst in snapshot.busy]
            + [(key, component) for component, keys in snapshot.idle.items() for key in keys]
        )
    )
    ordered = sorted(dedup.values(), key=lambda e: (e.caller_instance, e.callee, e.interface))
    calls: dict[tuple[str, str], list[tuple[str, str, int]]] = {node: [] for node in nodes}
    for e in ordered:
        calls[e.caller_instance, e.caller_component].append((e.callee, e.interface, e.earliest))
    return RuntimeDependencyGraph(
        window, [((key,), component, tuple(c)) for (key, component), c in calls.items()]
    )


def reference_client_first_order(static, members: frozenset[str]) -> list[str]:
    """Client-first order by re-sorting the members left at every pick (quadratic).

    A member is ready when none of its users among the members left remains;
    the smallest ready name goes next, and when none is ready (a cycle) the
    smallest name left.  Reads only ``static.callers``.
    """
    incoming = {
        m: {r for r in static.callers.get(m, ()) if r in members and r != m} for m in members
    }
    order: list[str] = []
    remaining = set(members)
    while remaining:
        roots = sorted(m for m in remaining if not (incoming[m] & remaining))
        pick = roots[0] if roots else sorted(remaining)[0]
        order.append(pick)
        remaining.discard(pick)
    return order


def forward_simulation_affected(
    snapshot: RuntimeSnapshot,
    window: ReconfigurationWindow,
    targets: frozenset[str],
) -> frozenset[str]:
    """Components that invoke a target (transitively) within the window.

    Simulates the snapshot's in-progress work forward, minimum delays taken
    as actual times and every automaton branch explored.  A call arriving at
    a component triggers fresh executions of each of its provided
    operations from their initial states at the arrival time.  No new
    external work is assumed: this is the future of what is already
    running.
    """
    config = snapshot.config
    components = config.components()
    end = window.end

    calls: set[tuple[str, str]] = set()  # (caller component, callee component)
    best_invoked: dict[str, int] = {}  # component -> earliest inbound call time
    pending: list[tuple[str, int]] = []

    def within(t: int) -> bool:
        return end is None or t <= end

    def record_call(caller: str, callee: str, t: int) -> None:
        if not within(t):
            return
        calls.add((caller, callee))
        if callee not in best_invoked or t < best_invoked[callee]:
            best_invoked[callee] = t
            pending.append((callee, t))

    def walk(component: str, automaton: ServiceEffectAutomaton | None, state: str | None, t0: int) -> None:
        if automaton is None:
            # no protocol information: any required call could happen right away
            for interface in components[component].required:
                provider = config.provider_of(component, interface)
                if provider is not None:
                    record_call(component, provider, t0)
            return
        seen: set[tuple[str, int]] = set()
        frontier = [(state, t0)]
        while frontier:
            current, t = frontier.pop()
            if (current, t) in seen or not within(t):
                continue
            seen.add((current, t))
            for tr in automaton.outgoing(current):
                # the call fires when the transition is taken; its own
                # min_delay elapses afterwards
                if within(t):
                    provider = config.provider_of(component, tr.label.interface)
                    if provider is not None:
                        record_call(component, provider, t)
                frontier.append((tr.target, t + tr.min_delay))

    for inst in snapshot.busy:
        if inst.in_flight is not None:
            record_call(inst.component, inst.in_flight[0], snapshot.time)
        spec = None
        if inst.operation is not None:
            spec = components[inst.component].operation_spec(inst.operation)
        automaton = spec.effect_automaton if spec else None
        walk(inst.component, automaton, inst.cursor.current if inst.cursor else None, snapshot.time)

    while pending:
        component, t = pending.pop()
        descriptor = components.get(component)
        if descriptor is None:
            continue
        for spec in descriptor.operations:
            if spec.effect_automaton is None:
                walk(component, None, None, t)
            else:
                walk(component, spec.effect_automaton, spec.effect_automaton.initial, t)

    affected = set(targets)
    changed = True
    while changed:
        changed = False
        for caller, callee in calls:
            if callee in affected and caller not in affected:
                affected.add(caller)
                changed = True
    return frozenset(affected)


def replay_committed_writes(events) -> dict[str, dict[str, dict[str, str]]]:
    """Fold every committed transaction's writes, in commit order."""
    stores: dict[str, dict[str, dict[str, str]]] = {}
    for event in events:
        if event.kind != "TxCommit":
            continue
        for store, key, column, value in event.payload["writes"]:
            stores.setdefault(store, {}).setdefault(key, {})[column] = value
    return stores


def expected_shadow_contents(
    events, mapping: dict[str, str], source: str, shadow: str
) -> dict[str, dict[str, str]]:
    """Shadow store contents implied by the log: mapped pre-sync rows plus later writes."""
    sync_time = None
    for event in events:
        if event.kind == "StoreSynced" and event.payload["target"] == shadow:
            sync_time = event.t
            break
    assert sync_time is not None, "no StoreSynced event in log"
    rows: dict[str, dict[str, str]] = {}
    for event in events:
        if event.kind != "TxCommit" or event.t > sync_time:
            continue
        for store, key, column, value in event.payload["writes"]:
            if store == source:
                rows.setdefault(key, {})[column] = value
    shadow_rows = {
        key: {mapping[col]: val for col, val in row.items() if col in mapping}
        for key, row in rows.items()
    }
    for event in events:
        if event.kind != "TxCommit" or event.t <= sync_time:
            continue
        for store, key, column, value in event.payload["writes"]:
            if store == shadow:
                shadow_rows.setdefault(key, {})[column] = value
    return shadow_rows


def reference_validate_configuration(config: ApplicationConfiguration) -> None:
    """Every model invariant checked by its own loop, composition rules included.

    The validation that loading ran before it deferred the composition rules
    to ``check_composition``; the wires per requirement come from a scan of
    the wiring here instead of the configuration's index.
    """
    components = config.components()
    for c in components.values():
        c.validate()
    for spec in config.containers:
        spec.validate()
        if spec.hosted_component not in components:
            raise ValidationError(f"container hosts unknown component {spec.hosted_component!r}")
    hosted = [spec.hosted_component for spec in config.containers]
    if len(hosted) != len(set(hosted)):
        raise ValidationError("a component is hosted by more than one container")
    for name in components:
        if name not in hosted:
            raise ValidationError(f"component {name!r} has no container")

    wires = config.wires
    for wire in wires:
        if wire.requirer not in components:
            raise ValidationError(f"wire requirer {wire.requirer!r} is not a deployed component")
        requirer = components[wire.requirer]
        if wire.interface not in requirer.required:
            raise ValidationError(
                f"wire on {wire.requirer!r}: interface {wire.interface!r} is not declared required"
            )
        if wire.provider is None:
            continue
        if wire.provider not in components:
            raise ValidationError(f"wire provider {wire.provider!r} is not a deployed component")
        provider = components[wire.provider]
        if wire.interface not in provider.provided_names():
            raise ValidationError(
                f"wire {wire.requirer!r}->{wire.provider!r}: provider does not provide "
                f"{wire.interface!r}"
            )

    for c in components.values():
        for interface in c.required:
            matching = [w for w in wires if w.requirer == c.name and w.interface == interface]
            if not matching:
                raise ValidationError(
                    f"unwired requirement: component {c.name!r} requires {interface!r}"
                )
            if len(matching) > 1:
                raise ValidationError(
                    f"requirement {c.name!r}/{interface!r} wired to more than one provider"
                )
        # calls promised by automata must be servable by the wired provider
        for op in c.operations:
            if op.effect_automaton is None:
                continue
            for label in op.effect_automaton.labels:
                provider_name = config.provider_of(c.name, label.interface)
                if provider_name is None:
                    continue  # declared external
                provider = components[provider_name]
                if not provider.provides_operation(label.interface, label.operation):
                    raise ValidationError(
                        f"component {c.name!r} calls {label.interface}.{label.operation} "
                        f"but provider {provider_name!r} does not offer it"
                    )

    store_names = config.store_names()
    for c in components.values():
        if c.kind is ComponentKind.ENTITY:
            if c.data_store is None:
                raise ValidationError(f"entity component {c.name!r} references no data store")
            if c.data_store not in store_names:
                raise ValidationError(
                    f"entity component {c.name!r} references unknown data store {c.data_store!r}"
                )
        if c.kind is ComponentKind.MESSAGE_DRIVEN:
            if c.queue is None:
                raise ValidationError(f"message-driven component {c.name!r} references no queue")
            if c.queue not in config.queues:
                raise ValidationError(
                    f"message-driven component {c.name!r} references unknown queue {c.queue!r}"
                )


def full_scan_snapshot(engine: Engine) -> RuntimeSnapshot:
    """The engine's state captured by visiting every container and every instance.

    No index of the engine is read: busy instances, idle keys and the
    containers a live transaction touches all come from the containers
    themselves, in name order.
    """
    busy: list[InstanceSnapshot] = []
    idle: dict[str, tuple[str, ...]] = {}
    active: list[tuple[str, tuple[str, ...]]] = []
    for name in sorted(engine.containers):
        container = engine.containers[name]
        if container.touching_txs:
            active.append((name, tuple(sorted(container.touching_txs))))
        idle_keys = []
        for instance in container.instances:
            call = instance.current
            if call is None:
                idle_keys.append(instance.key)
                continue
            child = call.in_flight_child
            busy.append(
                InstanceSnapshot(
                    instance.key,
                    name,
                    call.operation,
                    call.cursor,
                    (child.component, child.interface) if child else None,
                )
            )
        if idle_keys:
            idle[name] = tuple(idle_keys)
    return RuntimeSnapshot(
        time=engine.clock,
        busy=tuple(busy),
        idle=MappingProxyType(idle),
        active_transactions=tuple(active),
        remote_refs=tuple(
            (component, tuple(sorted(clients)))
            for component, clients in sorted(engine.remote_refs.items())
            if clients
        ),
        queue_depths=tuple((name, len(q.items)) for name, q in sorted(engine.queues.items())),
        config=engine.config,
    )


# the indexes a configuration builds on first use and ``with_component`` hands on
CONFIGURATION_INDEXES = ("_leaves", "_wires_by_requirement", "_callers")


def fresh_build(config: ApplicationConfiguration) -> ApplicationConfiguration:
    """A configuration made from the same fields, which builds every index from its own leaves and wires."""
    return ApplicationConfiguration(
        config.leaves, config.wires, config.containers, config.data_stores, config.queues, config.version
    )


def read_report(config: ApplicationConfiguration) -> ConsistencyReport:
    """The composition report ``config`` would read, built on a shallow copy so ``config`` keeps its state."""
    return check_composition(copy.copy(config))


def carried_index_faults(config: ApplicationConfiguration) -> list[str]:
    """Each index ``config`` holds that differs, order included, from a fresh build's.

    ``_composition`` is listed when the report ``config`` reads differs from
    the one the fresh build computes in full, findings and order included.
    """
    fresh = fresh_build(config)
    faults = []
    for name in CONFIGURATION_INDEXES:
        if name not in config.__dict__:
            continue
        held, built = config.__dict__[name], getattr(fresh, name)
        if isinstance(held, dict):
            held, built = list(held.items()), list(built.items())
        if held != built:
            faults.append(name)
    if read_report(config) != check_composition(fresh):
        faults.append("_composition")
    return faults


def check_carried_indexes(monkeypatch) -> None:
    """Patch ``with_component`` so each configuration it makes is checked against a fresh build.

    The copy must hold every index a fresh build gives, must not have built
    its composition report yet, must keep no configuration, and must read
    the report a fresh build computes in full, findings and order included.
    The patch stays for the rest of the test.
    """
    with_component = ApplicationConfiguration.with_component

    def checked(self, descriptor):
        child = with_component(self, descriptor)
        assert "_composition" not in child.__dict__
        assert not any(isinstance(value, ApplicationConfiguration) for value in child.__dict__.values())
        assert carried_index_faults(child) == []
        return child

    monkeypatch.setattr(ApplicationConfiguration, "with_component", checked)


# what a configuration computes by a pass over its leaves or its wires: the two
# index passes (the wire pass also fills ``_callers``) and ``components()``, which
# copies the leaf map
CONFIGURATION_SCANS = ("_leaves", "_wires_by_requirement", "components")


def patch_configuration_scans(monkeypatch, wrap) -> None:
    """Replace each of ``CONFIGURATION_SCANS`` with ``wrap(name, original function)``.

    An index stays built at most once per configuration; the patch stays for
    the rest of the test (or of the ``monkeypatch.context()`` given).
    """
    for name in CONFIGURATION_SCANS:
        original = ApplicationConfiguration.__dict__[name]
        if isinstance(original, cached_property):
            patched = cached_property(wrap(name, original.func))
            patched.__set_name__(ApplicationConfiguration, name)
        else:
            patched = wrap(name, original)
        monkeypatch.setattr(ApplicationConfiguration, name, patched)
