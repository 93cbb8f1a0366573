"""Dependency graphs and the minimal affected set.

Two graphs: the static structural graph (one edge per wire between leaf
components) and the runtime graph, which is instance-level and pruned to a
reconfiguration window.  Pruning drops dependencies that are already in the
past (the cursor moved beyond the only transitions carrying the call) and
ones too far in the future (the earliest possible occurrence falls after the
window closes).  Because transition delays are minimum bounds, pruning can
only over-approximate, never miss, a dependency that fires inside the window.

Earliest occurrences are read from each automaton's per-state table, which
the immutable automaton computes once; the composition check behind the
static graph is the report cached on the configuration instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automata import earliest_occurrence  # noqa: F401 - bench/tracing.py wraps it here
from .errors import (
    InconsistentConfiguration,
    SnapshotStale,
    UnknownTarget,
    ValidationError,
)
from .model import ApplicationConfiguration, check_composition
from .snapshot import RuntimeSnapshot


@dataclass(frozen=True)
class ReconfigurationWindow:
    """The interval from request receipt to estimated completion.

    ``estimated_duration`` of None means an unbounded window (no late-future
    pruning); zero is the degenerate window that admits only work that can
    fire at the request instant.  Plans always estimate at least 1.
    """

    start: int
    estimated_duration: Optional[int]

    def __post_init__(self) -> None:
        if self.estimated_duration is not None and self.estimated_duration < 0:
            raise ValidationError("window estimated_duration must be non-negative")

    @property
    def end(self) -> Optional[int]:
        if self.estimated_duration is None:
            return None
        return self.start + self.estimated_duration

    def contains(self, t: int) -> bool:
        return self.end is None or t <= self.end


@dataclass(frozen=True)
class StaticDependencyGraph:
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]  # (requirer, provider, interface)

    def ancestors_of(self, targets: frozenset[str]) -> frozenset[str]:
        """Components that can reach a target through uses-dependencies (excludes targets)."""
        callers: dict[str, set[str]] = {}
        for requirer, provider, _ in self.edges:
            callers.setdefault(provider, set()).add(requirer)
        out: set[str] = set()
        stack = list(targets)
        while stack:
            for caller in callers.get(stack.pop(), ()):
                if caller not in out:
                    out.add(caller)
                    stack.append(caller)
        return frozenset(out - set(targets))


@dataclass(frozen=True)
class RuntimeEdge:
    caller_instance: str
    caller_component: str
    callee: str
    interface: str
    earliest: int


@dataclass(frozen=True)
class RuntimeDependencyGraph:
    nodes: tuple[tuple[str, str], ...]  # (instance key, component)
    edges: tuple[RuntimeEdge, ...]
    window: ReconfigurationWindow


def build_static_graph(config: ApplicationConfiguration) -> StaticDependencyGraph:
    """One edge per internal wire between leaf components, lexicographically ordered."""
    report = check_composition(config)
    if not report.consistent:
        first = report.findings[0]
        raise InconsistentConfiguration(f"{first.kind}: {first.subject}: {first.detail}")
    nodes = tuple(sorted(config.components()))
    edges = sorted(
        (w.requirer, w.provider, w.interface) for w in config.wiring() if w.provider is not None
    )
    return StaticDependencyGraph(nodes, tuple(edges))


def build_runtime_graph(
    snapshot: RuntimeSnapshot, window: ReconfigurationWindow
) -> RuntimeDependencyGraph:
    """Instance-level uses-dependencies surviving the window pruning.

    Per instance:

    * busy with a cursor: one edge per call label whose earliest occurrence
      (cursor-relative) still fits the window; the in-flight nested call, if
      any, contributes its edge unconditionally;
    * busy without a cursor (operation has no automaton): all static edges
      of the component — conservative fallback;
    * idle: edges for calls reachable from each provided operation's initial
      state, offset by the window start (the instance can be put to work at
      any moment, but no sooner than now).
    """
    if snapshot.time != window.start:
        raise SnapshotStale(
            f"snapshot taken at {snapshot.time}, window starts at {window.start}"
        )
    config = snapshot.config
    components = config.components()
    edges: list[RuntimeEdge] = []

    def add_edge(instance: str, component: str, interface: str, earliest: int) -> None:
        provider = config.provider_of(component, interface)
        if provider is None:
            return  # external requirement: nothing deployed to halt
        edges.append(RuntimeEdge(instance, component, provider, interface, earliest))

    def add_static_fallback(instance: str, component: str) -> None:
        for interface in components[component].required:
            add_edge(instance, component, interface, window.start)

    for inst in snapshot.instances:
        descriptor = components.get(inst.component)
        if descriptor is None:
            continue
        if inst.idle:
            fallback = False
            labels: dict[tuple[str, str], int] = {}
            for op in descriptor.operations:
                automaton = op.effect_automaton
                if automaton is None:
                    fallback = True
                    continue
                for label, e in automaton.earliest_table(automaton.initial):
                    if label not in labels or e < labels[label]:
                        labels[label] = e
            for (interface, _operation), e in sorted(labels.items()):
                if window.contains(window.start + e):
                    add_edge(inst.key, inst.component, interface, window.start + e)
            if fallback:
                add_static_fallback(inst.key, inst.component)
            continue
        if inst.in_flight is not None:
            callee, interface = inst.in_flight
            edges.append(
                RuntimeEdge(inst.key, inst.component, callee, interface, window.start)
            )
        if inst.cursor is None:
            add_static_fallback(inst.key, inst.component)
            continue
        for label, e in inst.cursor.automaton.earliest_table(inst.cursor.current):
            if window.contains(window.start + e):
                add_edge(inst.key, inst.component, label.interface, window.start + e)

    dedup: dict[tuple, RuntimeEdge] = {}
    for edge in edges:
        key = (edge.caller_instance, edge.callee, edge.interface)
        if key not in dedup or edge.earliest < dedup[key].earliest:
            dedup[key] = edge
    nodes = tuple(sorted((inst.key, inst.component) for inst in snapshot.instances))
    ordered = tuple(
        sorted(dedup.values(), key=lambda e: (e.caller_instance, e.callee, e.interface))
    )
    return RuntimeDependencyGraph(nodes, ordered, window)


def affected_set(
    graph: RuntimeDependencyGraph,
    static_graph: StaticDependencyGraph,
    targets: frozenset[str] | set[str],
) -> frozenset[str]:
    """Components that must be barricaded for a change to ``targets``.

    The result is the targets plus every component owning an instance with a
    caller-to-callee path (through runtime edges) reaching a target.  A path
    continues through a component via any of its instances, because any of
    them may serve the inbound call.  Verdicts are component-level: one
    implicated instance barricades the whole container.
    """
    targets = frozenset(targets)
    unknown = targets - set(static_graph.nodes)
    if unknown:
        raise UnknownTarget(f"unknown components: {sorted(unknown)}")
    callers: dict[str, set[str]] = {}
    for edge in graph.edges:
        callers.setdefault(edge.callee, set()).add(edge.caller_component)
    affected = set(targets)
    stack = list(targets)
    while stack:
        for caller in callers.get(stack.pop(), ()):
            if caller not in affected:
                affected.add(caller)
                stack.append(caller)
    return frozenset(affected)


def graph_to_json(
    static: StaticDependencyGraph,
    runtime: RuntimeDependencyGraph,
    affected: frozenset[str],
) -> dict:
    return {
        "static": {
            "nodes": list(static.nodes),
            "edges": [
                {"requirer": r, "provider": p, "interface": i} for r, p, i in static.edges
            ],
        },
        "nodes": [{"instance": key, "component": comp} for key, comp in runtime.nodes],
        "edges": [
            {
                "caller_instance": e.caller_instance,
                "caller_component": e.caller_component,
                "callee": e.callee,
                "interface": e.interface,
                "earliest": e.earliest,
            }
            for e in runtime.edges
        ],
        "window": {
            "start": runtime.window.start,
            "estimated_duration": runtime.window.estimated_duration,
        },
        "affected": sorted(affected),
    }


def graph_to_dot(
    static: StaticDependencyGraph,
    runtime: RuntimeDependencyGraph,
    affected: frozenset[str],
) -> str:
    """DOT rendering: static edges dashed, runtime edges solid, affected shaded."""
    lines = ["digraph runtime_dependencies {"]
    for node in static.nodes:
        attrs = ' style=filled fillcolor="lightgrey"' if node in affected else ""
        lines.append(f'  "{node}"{attrs};')
    for requirer, provider, interface in static.edges:
        lines.append(f'  "{requirer}" -> "{provider}" [style=dashed label="{interface}"];')
    for e in runtime.edges:
        lines.append(
            f'  "{e.caller_component}" -> "{e.callee}" '
            f'[label="{e.caller_instance}@{e.earliest}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
