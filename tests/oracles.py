"""Independent oracles the implementation is checked against.

Each oracle recomputes an answer by brute force over the same model
semantics, sharing no code path with the operation it verifies.
"""

from __future__ import annotations

from quiesce.automata import AutomatonCursor, CallLabel, ServiceEffectAutomaton
from quiesce.depgraph import ReconfigurationWindow, RuntimeDependencyGraph, RuntimeEdge
from quiesce.snapshot import RuntimeSnapshot


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

    Same pruning rules as ``depgraph.build_runtime_graph``: an idle instance
    contributes, per call label, the minimum earliest occurrence over its
    operations' initial states; a busy instance with a cursor contributes
    each label's earliest occurrence from the cursor plus its in-flight
    call; an operation without an automaton falls back to every static
    edge.  Earliest occurrences come from ``enumerate_earliest``.
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

    for inst in snapshot.instances:
        descriptor = components.get(inst.component)
        if descriptor is None:
            continue
        if inst.idle:
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
                    add_edge(inst.key, inst.component, interface, window.start + e)
            if fallback:
                add_static_fallback(inst.key, inst.component)
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
    nodes = tuple(sorted((inst.key, inst.component) for inst in snapshot.instances))
    ordered = tuple(sorted(dedup.values(), key=lambda e: (e.caller_instance, e.callee, e.interface)))
    return RuntimeDependencyGraph(nodes, ordered, window)


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

    for inst in snapshot.instances:
        if inst.idle:
            continue
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
