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
changed automaton is a new instance, so no cached answer goes stale.  At
construction it also builds, per state, the tuple of its outgoing transitions
and the tuple of choices a running operation has there, so a simulation step
copies neither.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

from .documents import record, typed
from .errors import ProtocolViolation, ValidationError


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


# the choice to stop, which a final state offers after its transitions
_STOP: tuple[None] = (None,)


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
    _choices: dict = field(default=None, compare=False, repr=False)

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
        steps = {s: tuple(sorted(ts, key=lambda t: (t.label, t.target))) for s, ts in outgoing.items()}
        object.__setattr__(self, "_outgoing", steps)
        choices = {s: ts + _STOP if s in self.finals or not ts else ts for s, ts in steps.items()}
        object.__setattr__(self, "_choices", choices)
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
        return self._outgoing[state]

    def choices(self, state: str) -> tuple[Optional[Transition], ...]:
        """What a running operation may do in ``state``: each outgoing transition in order,
        then ``None`` (stop) when ``state`` is final or has no transition."""
        return self._choices[state]

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


_AUTOMATON_KEYS = frozenset({"states", "initial", "finals", "transitions"})
_TRANSITION_KEYS = frozenset({"from", "to", "calls_interface", "calls_operation", "min_delay"})


def automaton_from_json(doc: dict) -> ServiceEffectAutomaton:
    """Build an automaton from its document form (strict keys)."""
    record(doc, _AUTOMATON_KEYS, "automaton document", _AUTOMATON_KEYS)
    transitions = []
    for t in doc["transitions"]:
        record(t, _TRANSITION_KEYS, "transition document", _TRANSITION_KEYS)
        if type(t["min_delay"]) is not int:
            typed(t, "min_delay", (int,), "transition document")  # raises, naming the fault
        transitions.append(
            Transition(
                source=t["from"],
                label=CallLabel(t["calls_interface"], t["calls_operation"]),
                min_delay=t["min_delay"],
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
