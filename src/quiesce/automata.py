"""Per-operation effect automata over required-service calls.

Each provided operation of a component may carry a finite, deterministic
automaton whose transition labels are the calls the operation makes to its
required interfaces.  Tracking the current state of a running operation lets
the dependency analysis ask two questions: which calls can still happen
(pruning calls that lie entirely in the past), and how soon the next
occurrence of a given call can be (pruning calls that lie too far in the
future).  Transition delays are minimum bounds, so both answers err on the
conservative side.

An automaton is immutable, so it computes its sorted labels and, per state on
first use, its earliest-occurrence table once, outside the compared fields: a
changed automaton is a new instance, so no cached answer goes stale.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

from .errors import ParseError, ProtocolViolation, ValidationError


class CallLabel(NamedTuple):
    """A required-service call: (interface name, operation name)."""

    interface: str
    operation: str


@dataclass(frozen=True)
class Transition:
    source: str
    label: CallLabel
    min_delay: int
    target: str


@dataclass(frozen=True)
class ServiceEffectAutomaton:
    """Deterministic finite automaton describing one operation's call behaviour.

    Invariants enforced at construction:

    * every transition endpoint and the initial state belong to ``states``;
    * ``finals`` is a non-empty subset of ``states``;
    * every state lies on some path from ``initial`` to a final state;
    * no two transitions share (source, label) — nondeterministic input is
      rejected rather than determinized, so a missing transition always
      means "this call is forbidden here".
    """

    states: frozenset[str]
    initial: str
    finals: frozenset[str]
    transitions: tuple[Transition, ...]
    _outgoing: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.initial not in self.states:
            raise ValidationError(f"automaton initial state {self.initial!r} not in states")
        if not self.finals:
            raise ValidationError("automaton has no final states")
        if not self.finals <= self.states:
            raise ValidationError("automaton final states not a subset of states")
        outgoing: dict[str, list[Transition]] = {s: [] for s in self.states}
        seen: set[tuple[str, CallLabel]] = set()
        for t in self.transitions:
            if t.source not in self.states or t.target not in self.states:
                raise ValidationError(f"transition {t.source!r}->{t.target!r} leaves the state set")
            if t.min_delay < 0:
                raise ValidationError("transition min_delay must be non-negative")
            key = (t.source, t.label)
            if key in seen:
                raise ValidationError(
                    f"nondeterministic automaton: duplicate transition on {t.label} from {t.source!r}"
                )
            seen.add(key)
            outgoing[t.source].append(t)
        for s in outgoing:
            outgoing[s].sort(key=lambda t: (t.label, t.target))
        object.__setattr__(self, "_outgoing", outgoing)
        self._check_no_dead_states()

    def _check_no_dead_states(self) -> None:
        # forward reachability from initial
        reached = {self.initial}
        stack = [self.initial]
        while stack:
            for t in self._outgoing[stack.pop()]:
                if t.target not in reached:
                    reached.add(t.target)
                    stack.append(t.target)
        if reached != self.states:
            dead = sorted(self.states - reached)
            raise ValidationError(f"automaton states unreachable from initial: {dead}")
        # backward reachability from finals
        incoming: dict[str, list[str]] = {s: [] for s in self.states}
        for t in self.transitions:
            incoming[t.target].append(t.source)
        alive = set(self.finals)
        stack = list(self.finals)
        while stack:
            for src in incoming[stack.pop()]:
                if src not in alive:
                    alive.add(src)
                    stack.append(src)
        if alive != self.states:
            dead = sorted(self.states - alive)
            raise ValidationError(f"automaton states cannot reach a final state: {dead}")

    def outgoing(self, state: str) -> tuple[Transition, ...]:
        """Transitions leaving ``state``, in (label, target) order."""
        return tuple(self._outgoing[state])

    def alphabet(self) -> frozenset[CallLabel]:
        return frozenset(t.label for t in self.transitions)

    @cached_property
    def labels(self) -> tuple[CallLabel, ...]:
        """The alphabet in sorted order."""
        return tuple(sorted(self.alphabet()))

    @cached_property
    def _earliest_tables(self) -> dict[str, tuple[tuple[CallLabel, int], ...]]:
        return {}

    def earliest_table(self, state: str) -> tuple[tuple[CallLabel, int], ...]:
        """Sorted (label, earliest occurrence from ``state``) pairs without unreachable labels."""
        table = self._earliest_tables.get(state)
        if table is None:
            best = _earliest_from(self, state)
            table = tuple((label, best[label]) for label in self.labels if label in best)
            self._earliest_tables[state] = table
        return table

    def cursor(self, at: Optional[str] = None) -> "AutomatonCursor":
        """Cursor positioned at ``at`` (default: the initial state)."""
        return AutomatonCursor(self, at if at is not None else self.initial)


@dataclass(frozen=True)
class AutomatonCursor:
    """An automaton plus the state a running operation has reached."""

    automaton: ServiceEffectAutomaton
    current: str

    def __post_init__(self) -> None:
        if self.current not in self.automaton.states:
            raise ValidationError(f"cursor state {self.current!r} not in automaton")


def advance(cursor: AutomatonCursor, call: CallLabel) -> AutomatonCursor:
    """Move the cursor along the transition labeled ``call``.

    Raises ProtocolViolation when no such transition exists: the component
    attempted a call its automaton forbids from the current state.
    """
    for t in cursor.automaton.outgoing(cursor.current):
        if t.label == call:
            return AutomatonCursor(cursor.automaton, t.target)
    raise ProtocolViolation(
        f"call {call.interface}.{call.operation} not allowed from state {cursor.current!r}"
    )


def reachable_calls(cursor: AutomatonCursor) -> frozenset[CallLabel]:
    """All call labels on transitions still reachable from the cursor.

    A label whose transitions all lie strictly behind the cursor is absent:
    that dependency is in the past.
    """
    labels: set[CallLabel] = set()
    seen = {cursor.current}
    stack = [cursor.current]
    while stack:
        for t in cursor.automaton.outgoing(stack.pop()):
            labels.add(t.label)
            if t.target not in seen:
                seen.add(t.target)
                stack.append(t.target)
    return frozenset(labels)


def _earliest_from(automaton: ServiceEffectAutomaton, state: str) -> dict[CallLabel, int]:
    """Earliest occurrence of each label reachable from ``state``: one Dijkstra over states.

    A path's delay sums the min_delay values of the transitions taken strictly
    before the matching one; states pop in nondecreasing delay, so a label's
    first sighting is its minimum.
    """
    best: dict[CallLabel, int] = {}
    dist = {state: 0}
    heap: list[tuple[int, str]] = [(0, state)]
    while heap:
        d, source = heapq.heappop(heap)
        if d > dist[source]:
            continue
        for t in automaton.outgoing(source):
            best.setdefault(t.label, d)
            nd = d + t.min_delay
            if nd < dist.get(t.target, nd + 1):
                dist[t.target] = nd
                heapq.heappush(heap, (nd, t.target))
    return best


def earliest_occurrence(cursor: AutomatonCursor, call: CallLabel) -> Optional[int]:
    """Minimum delay over all paths until ``call`` can next occur, or None if unreachable."""
    for label, earliest in cursor.automaton.earliest_table(cursor.current):
        if label == call:
            return earliest
    return None


def automaton_from_json(doc: dict) -> ServiceEffectAutomaton:
    """Build an automaton from its document form (strict keys)."""
    allowed = {"states", "initial", "finals", "transitions"}
    unknown = set(doc) - allowed
    if unknown:
        raise ParseError(f"unknown keys in automaton document: {sorted(unknown)}")
    missing = allowed - set(doc)
    if missing:
        raise ParseError(f"automaton document missing keys: {sorted(missing)}")
    transitions = []
    for t in doc["transitions"]:
        t_allowed = {"from", "to", "calls_interface", "calls_operation", "min_delay"}
        t_unknown = set(t) - t_allowed
        if t_unknown:
            raise ParseError(f"unknown keys in transition document: {sorted(t_unknown)}")
        transitions.append(
            Transition(
                source=t["from"],
                label=CallLabel(t["calls_interface"], t["calls_operation"]),
                min_delay=int(t["min_delay"]),
                target=t["to"],
            )
        )
    return ServiceEffectAutomaton(
        states=frozenset(doc["states"]),
        initial=doc["initial"],
        finals=frozenset(doc["finals"]),
        transitions=tuple(transitions),
    )


def automaton_to_json(auto: ServiceEffectAutomaton) -> dict:
    return {
        "states": sorted(auto.states),
        "initial": auto.initial,
        "finals": sorted(auto.finals),
        "transitions": [
            {
                "from": t.source,
                "to": t.target,
                "calls_interface": t.label.interface,
                "calls_operation": t.label.operation,
                "min_delay": t.min_delay,
            }
            for t in auto.transitions
        ],
    }
