"""Dependency graphs and the minimal affected set.

Two graphs: the static structural graph (one edge per wire between leaf
components) and the runtime graph, whose calls are pruned to a
reconfiguration window.  Pruning drops dependencies that are already in the
past (the cursor moved beyond the only transitions carrying the call) and
ones too far in the future (the earliest possible occurrence falls after the
window closes).  Because transition delays are minimum bounds, pruning can
only over-approximate, never miss, a dependency that fires inside the window.

Earliest occurrences are read from each automaton's per-state table, which
the immutable automaton computes once; the composition check behind the
static graph is the report cached on the configuration instance.

Both graphs are views.  The static graph's ``callers`` is its
configuration's reverse-wire index (provider -> the requirers wired to it),
which a configuration made by ``with_component`` inherits, and its sorted
``nodes`` and ``edges`` are built on first read.  ``build_runtime_graph``
derives the calls that survive the window once per group of instances with
the same calls: once for all of a component's idle keys, and once per busy
instance.  The runtime graph's component-level ``callers`` (callee -> the
components calling it) is built with it; its instance-level ``nodes`` and
``edges``, one edge per idle key and call, deduplicated and sorted, are
built on first read.  Only ``analyze-deps`` and whole-graph readers read
those.  ``affected_set`` walks ``callers``, so a plan never expands idle
keys, deduplicates edges or sorts them.

A plan (``manager.build_plan``) gives ``build_runtime_graph`` only the
instances of components that can reach its targets through a wire or an
in-flight call: every runtime call follows one of those, so no path to a
target leaves that set and the affected set is the one the full graph
gives.  ``analyze-deps`` builds the full graph.  The walks toward callers
(that reach, the window estimate's ancestors, the plan's client-first
order) all read the static graph's ``callers``.
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


# (callee, interface, earliest occurrence) of one call that survives the window
Call = tuple[str, str, int]


class RuntimeDependencyGraph:
    """Uses-dependencies surviving a window's pruning, as a view over per-group calls.

    ``groups`` holds one ``(instance keys, component, calls)`` entry per set
    of instances with the same calls: a component's idle keys share one, and
    each busy instance has its own.  ``callers`` (callee -> the component of
    each call to it) is built with the view; the instance-level ``nodes``
    and ``edges`` are built on first read, which only ``analyze-deps`` and
    whole-graph readers do.
    """

    def __init__(
        self,
        window: ReconfigurationWindow,
        groups: Iterable[tuple[tuple[str, ...], str, tuple[Call, ...]]],
    ) -> None:
        self.window = window
        self.groups = tuple(groups)
        self.callers: dict[str, list[str]] = {}
        for _, component, calls in self.groups:
            for callee, _, _ in calls:
                self.callers.setdefault(callee, []).append(component)

    @cached_property
    def nodes(self) -> tuple[tuple[str, str], ...]:
        """(instance key, component) per instance, sorted."""
        return tuple(sorted((key, component) for keys, component, _ in self.groups for key in keys))

    @cached_property
    def edges(self) -> tuple[RuntimeEdge, ...]:
        """One edge per (caller instance, callee, interface) at its least earliest occurrence, sorted."""
        best: dict[tuple[str, str, str], RuntimeEdge] = {}
        for keys, component, calls in self.groups:
            for key in keys:
                for callee, interface, earliest in calls:
                    edge = best.get((key, callee, interface))
                    if edge is None or earliest < edge.earliest:
                        best[key, callee, interface] = RuntimeEdge(key, component, callee, interface, earliest)
        return tuple(edge for _, edge in sorted(best.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RuntimeDependencyGraph):
            return NotImplemented
        return (self.nodes, self.edges, self.window) == (other.nodes, other.edges, other.window)


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
    """Uses-dependencies surviving the window pruning, derived once per group of instances.

    Per instance:

    * busy with a cursor: one call per call label whose earliest occurrence
      (cursor-relative) still fits the window; the in-flight nested call, if
      any, contributes its call unconditionally;
    * busy without a cursor (operation has no automaton): all static edges
      of the component — conservative fallback;
    * idle: calls reachable from each provided operation's initial state,
      offset by the window start (the instance can be put to work at any
      moment, but no sooner than now).  Every idle instance of a component
      has the same calls, so they are worked out once for all its idle keys.

    A call to an external requirement has nothing deployed to halt and is
    dropped.  An instance of a component the configuration does not know
    is a node without calls.
    """
    if snapshot.time != window.start:
        raise SnapshotStale(
            f"snapshot taken at {snapshot.time}, window starts at {window.start}"
        )
    config = snapshot.config
    start, horizon = window.start, window.estimated_duration
    groups: list[tuple[tuple[str, ...], str, tuple[Call, ...]]] = []

    def wired(component: str, found: Iterable[tuple[str, int]], calls: list[Call]) -> tuple[Call, ...]:
        """``calls`` plus each (interface, earliest) of ``found`` in the window, to its provider."""
        for interface, e in found:
            if horizon is None or e <= horizon:
                provider = config.provider_of(component, interface)
                if provider is not None:
                    calls.append((provider, interface, start + e))
        return tuple(calls)

    for component, keys in snapshot.idle.items():
        descriptor = config.component(component)
        if descriptor is None:
            groups.append((keys, component, ()))
            continue
        earliest: dict[str, int] = {}  # interface -> its least earliest occurrence over the operations
        for op in descriptor.operations:
            automaton = op.effect_automaton
            if automaton is None:
                earliest.update(dict.fromkeys(descriptor.required, 0))
                continue
            for label, e in automaton.earliest_table(automaton.initial):
                if label.interface not in earliest or e < earliest[label.interface]:
                    earliest[label.interface] = e
        groups.append((keys, component, wired(component, earliest.items(), [])))

    for inst in snapshot.busy:
        descriptor = config.component(inst.component)
        if descriptor is None:
            groups.append(((inst.key,), inst.component, ()))
            continue
        calls: list[Call] = []
        if inst.in_flight is not None:
            callee, interface = inst.in_flight
            calls.append((callee, interface, start))
        if inst.cursor is None:
            found = [(interface, 0) for interface in descriptor.required]
        else:
            cursor = inst.cursor
            found = [(label.interface, e) for label, e in cursor.automaton.earliest_table(cursor.current)]
        groups.append(((inst.key,), inst.component, wired(inst.component, found, calls)))

    return RuntimeDependencyGraph(window, groups)


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
    implicated instance barricades the whole container, so the walk reads
    the graph's component-level ``callers`` and never its instance edges.
    """
    targets = frozenset(targets)
    unknown = {t for t in targets if static_graph.config.component(t) is None}
    if unknown:
        raise UnknownTarget(f"unknown components: {sorted(unknown)}")
    return _callers_closure(targets, graph.callers)


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
