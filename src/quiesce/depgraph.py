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

The static graph is a view over its configuration's indexes: its
``callers`` is the configuration's reverse-wire index (provider -> the
requirers wired to it), which a configuration made by ``with_component``
inherits, and its sorted ``nodes`` and ``edges`` are built on first read,
which only ``analyze-deps`` and whole-graph readers do.  A plan therefore
never sorts or scans the wiring.

``build_runtime_graph`` covers every instance of the snapshot it is given:
each busy instance's record, and each idle key, whose edges are worked out
once per component because every idle instance of a component has the same
ones.  A plan (``manager.build_plan``) gives it only the instances of
components that can reach its targets through a wire or an in-flight call:
every runtime edge follows one of those, so no path to a target leaves that
set and the affected set is the one the full graph gives.  ``analyze-deps``
builds the full graph.  The walks toward callers (that reach, the window
estimate's ancestors, the plan's client-first order) all read ``callers``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional

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


class StaticDependencyGraph:
    """The uses-graph of a configuration: one edge per internal wire between leaf components.

    A view over the configuration's indexes: ``callers`` is its reverse-wire
    index, and the sorted ``nodes`` and ``edges`` are built on first read.
    """

    def __init__(self, config: ApplicationConfiguration) -> None:
        self.config = config

    @property
    def callers(self) -> Mapping[str, list[str]]:
        """Reverse-wire index: provider -> the requirer of each wire to it, in wiring order."""
        return self.config._callers

    @cached_property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self.config.components()))

    @cached_property
    def edges(self) -> tuple[tuple[str, str, str], ...]:
        """(requirer, provider, interface) per internal wire, lexicographically ordered."""
        return tuple(
            sorted(
                (w.requirer, w.provider, w.interface)
                for w in self.config.wires
                if w.provider is not None
            )
        )

    def ancestors_of(self, targets: frozenset[str]) -> frozenset[str]:
        """Components that can reach a target through uses-dependencies (excludes targets)."""
        return _callers_closure(targets, self.callers) - targets


def _reverse(pairs: Iterable[tuple[str, str]]) -> dict[str, list[str]]:
    """callee -> its callers, from (caller, callee) ``pairs``."""
    callers: dict[str, list[str]] = {}
    for caller, callee in pairs:
        callers.setdefault(callee, []).append(caller)
    return callers


def _callers_closure(
    targets: frozenset[str], *indexes: Mapping[str, Iterable[str]]
) -> frozenset[str]:
    """``targets`` plus every caller that reaches one through the callee -> callers ``indexes``."""
    closure = set(targets)
    stack = list(targets)
    while stack:
        callee = stack.pop()
        for index in indexes:
            for caller in index.get(callee, ()):
                if caller not in closure:
                    closure.add(caller)
                    stack.append(caller)
    return frozenset(closure)


class RuntimeEdge(NamedTuple):
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
    """The static graph of a consistent configuration; InconsistentConfiguration otherwise."""
    report = check_composition(config)
    if not report.consistent:
        first = report.findings[0]
        raise InconsistentConfiguration(f"{first.kind}: {first.subject}: {first.detail}")
    return StaticDependencyGraph(config)


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
      any moment, but no sooner than now).  Every idle instance of a
      component has the same edges, so they are worked out once per
      component.
    """
    if snapshot.time != window.start:
        raise SnapshotStale(
            f"snapshot taken at {snapshot.time}, window starts at {window.start}"
        )
    config = snapshot.config
    components = {inst.component for inst in snapshot.busy}.union(snapshot.idle)
    descriptors = {component: config.component(component) for component in components}
    edges: list[RuntimeEdge] = []

    def add_edge(instance: str, component: str, interface: str, earliest: int) -> None:
        provider = config.provider_of(component, interface)
        if provider is None:
            return  # external requirement: nothing deployed to halt
        edges.append(RuntimeEdge(instance, component, provider, interface, earliest))

    def add_static_fallback(instance: str, component: str) -> None:
        for interface in descriptors[component].required:
            add_edge(instance, component, interface, window.start)

    for component, keys in snapshot.idle.items():
        descriptor = descriptors[component]
        if descriptor is None:
            continue
        first = len(edges)
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
                add_edge(keys[0], component, interface, window.start + e)
        if fallback:
            add_static_fallback(keys[0], component)
        template = edges[first:]
        for key in keys[1:]:
            edges.extend(
                RuntimeEdge(key, component, e.callee, e.interface, e.earliest) for e in template
            )

    for inst in snapshot.busy:
        if descriptors.get(inst.component) is None:
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
    nodes = sorted(
        [(inst.key, inst.component) for inst in snapshot.busy]
        + [(key, component) for component, keys in snapshot.idle.items() for key in keys]
    )
    ordered = tuple(
        sorted(dedup.values(), key=lambda e: (e.caller_instance, e.callee, e.interface))
    )
    return RuntimeDependencyGraph(tuple(nodes), ordered, window)


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
    unknown = {t for t in targets if static_graph.config.component(t) is None}
    if unknown:
        raise UnknownTarget(f"unknown components: {sorted(unknown)}")
    return _callers_closure(targets, _reverse((e.caller_component, e.callee) for e in graph.edges))


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
