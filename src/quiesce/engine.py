"""Deterministic discrete-event runtime for container-managed components.

The engine simulates the system that gets redeployed: containers with
interceptor chains, pooled instances, transactional invocations, message
queues, simulated key-value stores, and scripted client sessions.

Determinism rules
-----------------
Time is a non-negative integer.  Events scheduled for the same instant run
in (priority class, sequence number) order; the classes are completions
first, then barrier transitions, then new dispatches.  Where a component's
effect automaton offers a choice of behaviour, the branch is drawn from a
generator seeded by the scenario seed and the invocation's *structural*
identity (client id and script position, or message index), never by
arrival order — so the behaviour of one session cannot depend on how
unrelated sessions were interleaved.  Each call creates its generator at
its first choice, from the seed taken when it began and that identity; a
call that never chooses creates none.

Execution model
---------------
Each call is one record, from its submission to its completion; a call
that waits at a barrier is replayed as the same record.  A started call
occupies one instance for its whole duration: the instance points at it,
and so does each call it makes, as its parent.  Its automaton path is
walked transition by transition: taking a transition emits the nested call
at once (synchronously), and the transition's ``min_delay`` is local
computation after that call returns, before the next step.  A step picks
one of its state's own choices, so it can never be refused; the call moves
to the operation spec's one interned cursor at the target state
(``OperationSpec.cursor_at``) and builds none.  The earliest possible
occurrence of a nested call is therefore the sum of the delays strictly
before its transition, which is exactly what the dependency pruning
assumes.  After the walk ends a final local segment tops the busy time up
to the operation's declared ``duration`` (if the gaps have not consumed it
already); an operation with no automaton runs for ``duration`` from its start.
A call that finds no free instance waits in its container's pool queue;
waiters start FIFO from the head, and pools of the interchangeable kinds
stop at the first refusal, since a refused acquisition refuses every later
waiter until a completion frees an instance.  Each container records
whether it is gated (a CleanShutdown or RedeployBarrier stage ahead of
Pooling) when it is created, and a dispatch tests that only while a barrier
is up.  Each logged event is an ``Event`` record (a named tuple) that the
engine appends to its log's list itself, after the same
time-order check ``EventLog.append`` makes.  ``EVENT_SCHEMA`` declares each
kind's payload fields and their JSON types once; ``EventLog.to_jsonl``
writes each line from a template compiled from that row.

Barrier semantics
-----------------
While a redeploy barrier is draining, invocations that would start a new
transaction are held in FIFO order; invocations joining a transaction that
is already active pass through, because holding them could never let the
drain finish.  A barrier that has already closed re-admits a joining call
only when its transaction already runs inside some barricaded container —
those are the transactions other drains are waiting on, and holding them
would wedge the drain behind a provider that closed while momentarily
idle.  The container falls back to draining and closes again once the
transaction completes; swaps re-verify closure at the instant they apply.
Joining calls of transactions running wholly outside the barricade are new
outside work and park at the closed barrier until release.  A module
``stop`` drains through the same barrier: once it closes the container stops
and the release replays the held calls against the stopped container, which
denies them.
"""

from __future__ import annotations

import heapq
import json
import random
from collections import deque
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional

# calls move between interned cursors and no longer call ``advance``;
# the name stays here because the benchmark's tracer looks it up by it
from .automata import CallLabel, advance  # noqa: F401
from .errors import (
    AlreadyBarricaded,
    EngineFault,
    NotQuiescent,
    ProtocolViolation,
    ScenarioError,
    StateShapeMismatch,
    UnknownQueue,
    ValidationError,
)
from .model import (
    Access,
    ApplicationConfiguration,
    ComponentDescriptor,
    ComponentKind,
    ContainerSpec,
    InterceptorKind,
    OperationSpec,
    TxAttribute,
    Wire,
)
from .snapshot import InstanceSnapshot, RuntimeSnapshot
from .workload import (
    ClientSession,
    HomeAction,
    ScriptCall,
    WorkloadScenario,
    validate_scenario,
)

# Event kinds
INVOCATION_START = "InvocationStart"
INVOCATION_END = "InvocationEnd"
INVOCATION_HELD = "InvocationHeld"
INVOCATION_DENIED = "InvocationDenied"
TX_BEGIN = "TxBegin"
TX_COMMIT = "TxCommit"
TX_ABORT = "TxAbort"
BARRIER_ACTIVATED = "BarrierActivated"
QUIESCENCE_REACHED = "QuiescenceReached"
SWAP_APPLIED = "SwapApplied"
BARRIER_RELEASED = "BarrierReleased"
MESSAGE_ENQUEUED = "MessageEnqueued"
MESSAGE_DELIVERED = "MessageDelivered"
SESSION_INVALIDATED = "SessionInvalidated"
QUEUE_PAUSED = "QueuePaused"
QUEUE_RESUMED = "QueueResumed"
STORE_SYNCED = "StoreSynced"
POOL_SIZE_CHANGED = "PoolSizeChanged"

# JSON types of a payload field
STR = "str"
NULLABLE_STR = "str|null"
INT = "int"
ANY = "any"

# Every kind the engine emits, with its payload's fields and their JSON types:
# the format reference of events.jsonl.  Each line of the log is
# {"kind": <kind>, "payload": {<these fields, keys sorted>}, "t": <int>}.
EVENT_SCHEMA: dict[str, dict[str, str]] = {
    INVOCATION_START: {
        "id": STR,
        "component": STR,
        "interface": STR,
        "operation": STR,
        "caller": NULLABLE_STR,
        "session": NULLABLE_STR,
        "instance": STR,
        "tx": NULLABLE_STR,
        "submitted_at": INT,
    },
    INVOCATION_END: {
        "id": STR,
        "component": STR,
        "operation": STR,
        "session": NULLABLE_STR,
        "instance": STR,
        "tx": NULLABLE_STR,
        "submitted_at": INT,
    },
    INVOCATION_HELD: {"id": STR, "component": STR, "operation": STR, "session": NULLABLE_STR, "submitted_at": INT},
    INVOCATION_DENIED: {"id": STR, "component": STR, "session": NULLABLE_STR, "reason": STR},
    SESSION_INVALIDATED: {"session": NULLABLE_STR, "reason": STR},
    TX_BEGIN: {"tx": NULLABLE_STR, "root": STR},
    TX_COMMIT: {"tx": NULLABLE_STR, "root": STR, "writes": ANY},  # [[store, key, column, value], ...]
    BARRIER_ACTIVATED: {"component": STR},
    QUIESCENCE_REACHED: {"component": STR},
    BARRIER_RELEASED: {"component": STR},
    MESSAGE_ENQUEUED: {"queue": STR, "payload": STR, "seq": INT},
    MESSAGE_DELIVERED: {"queue": STR, "payload": STR, "seq": INT},
    QUEUE_PAUSED: {"queue": STR},
    QUEUE_RESUMED: {"queue": STR},
    SWAP_APPLIED: {"component": STR, "from_version": INT, "to_version": INT},
    STORE_SYNCED: {"component": STR, "source": STR, "target": STR, "rows": INT},
    POOL_SIZE_CHANGED: {"component": STR, "pool_size": INT},
}

# Enum members the engine compares against on every container or step, bound
# once: reading a member off its Enum class costs several global reads.
_POOLING = InterceptorKind.POOLING
_CLEAN_SHUTDOWN = InterceptorKind.CLEAN_SHUTDOWN
_REDEPLOY_BARRIER = InterceptorKind.REDEPLOY_BARRIER
_STATEFUL = ComponentKind.STATEFUL_SESSION
_ENTITY = ComponentKind.ENTITY
_NO_TX = TxAttribute.NONE
_JOINS = TxAttribute.JOINS
_STARTS_NEW = TxAttribute.STARTS_NEW

# Same-instant scheduling priority classes.
PRIO_COMPLETION = 0
PRIO_BARRIER = 1
PRIO_DISPATCH = 2

# After this many nested calls one call stops exploring and takes the
# fewest-hops route to a final state; keeps cyclic automata finite.
_WALK_CAP = 64


def _toward_final(automaton, state):
    """First transition on a fewest-hops path from ``state`` to a final, or None."""
    if state in automaton.finals:
        return None
    queue = deque([(state, None)])
    seen = {state}
    while queue:
        current, first = queue.popleft()
        for t in automaton.outgoing(current):
            step = first if first is not None else t
            if t.target in automaton.finals:
                return step
            if t.target not in seen:
                seen.add(t.target)
                queue.append((t.target, step))
    return None


# the C encoder json.dumps(..., sort_keys=True) would build per call, built
# once; it returns the chunks of one value's JSON text.  The log's lines use
# it for ``any`` fields and for whole events that are off their schema row.
_ENCODE = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None, ": ", ", ", True, False, True
)


def _generic_line(t, kind, payload) -> str:
    """``json.dumps({"t": t, "kind": kind, "payload": payload}, sort_keys=True)``."""
    return "".join(_ENCODE({"kind": kind, "payload": payload, "t": t}, 0))


# how a formatter writes a value of each JSON type into its template
_FIELD_TEXT = {
    STR: ("%s", "quote(v{i})"),
    NULLABLE_STR: ("%s", "'null' if v{i} is None else quote(v{i})"),
    INT: ("%d", "v{i}"),  # after an exact type check: %d would take a bool or a float
    ANY: ("%s", "''.join(encode(v{i}, 0))"),
}


def _line_formatter(kind: str, fields: dict[str, str]) -> Callable[[int, str, dict], str]:
    """Compile one schema row into ``format(t, kind, payload) -> line``.

    The line is a ``%`` template with the payload keys already sorted, so it
    is the text ``json.dumps(..., sort_keys=True)`` gives: a string goes
    through ``encode_basestring_ascii`` and an ``any`` value through
    ``_ENCODE``, as the encoder would.  An event off its row (a key missing
    or extra, a value or time of another type) gets ``_generic_line``.
    """
    quote = json.encoder.encode_basestring_ascii
    names = sorted(fields)
    slots, texts = [], []
    for i, name in enumerate(names):
        slot, text = _FIELD_TEXT[fields[name]]
        slots.append(quote(name).replace("%", "%%") + ": " + slot)
        texts.append(text.format(i=i))
    template = '{"kind": %s, "payload": {%s}, "t": %%d}' % (quote(kind).replace("%", "%%"), ", ".join(slots))
    ints = "".join(f" and type(v{i}) is int" for i, name in enumerate(names) if fields[name] == INT)
    source = "\n".join(
        [
            "def format_line(t, kind, p):",
            "    try:",
            f"        if len(p) == {len(names)}:",
            *(f"            v{i} = p[{name!r}]" for i, name in enumerate(names)),
            f"            if type(t) is int{ints}:",
            f"                return template % ({''.join(text + ', ' for text in texts)}t)",
            "    except (KeyError, TypeError):",
            "        pass",
            "    return generic(t, kind, p)",
        ]
    )
    namespace = {"template": template, "quote": quote, "encode": _ENCODE, "generic": _generic_line}
    exec(source, namespace)
    return namespace["format_line"]


# kind -> its row's formatter, built once
_FORMATTERS = {kind: _line_formatter(kind, fields) for kind, fields in EVENT_SCHEMA.items()}


class Event(NamedTuple):
    t: int
    kind: str
    payload: dict


# builds an Event without the generated __new__'s Python-level call
_new_event = tuple.__new__


class EventLog:
    """Append-only, totally ordered record of everything the engine did."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def append(self, t: int, kind: str, payload: dict) -> None:
        """Record one event; the log takes ownership of ``payload`` and keeps it as is."""
        if self.events and t < self.events[-1].t:
            raise EngineFault("event log time went backwards")
        self.events.append(Event(t, kind, payload))

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def to_jsonl(self) -> str:
        """One ``json.dumps({"t", "kind", "payload"}, sort_keys=True)`` line per event.

        Each event is written by its kind's formatter, filled from the
        ``EVENT_SCHEMA`` row; the generic encoder writes only a kind with no
        row and an event off its row.
        """
        get, generic = _FORMATTERS.get, _generic_line
        lines = [get(kind, generic)(t, kind, payload) for t, kind, payload in self.events]
        lines.append("")
        return "\n".join(lines)


class _Invocation:
    """Runtime record of one call; ``_begin`` sets the fields of its run.

    Built with positional arguments, in the order of ``__init__``: a step
    builds one per call, and keywords would more than double its cost.
    """

    __slots__ = (
        "id",
        "caller",
        "session",
        "component",
        "interface",
        "operation",
        "ambient_tx",
        "tx",
        "started_tx",
        "submitted_at",
        "parent",
        # set by _begin
        "container",
        "instance",
        "spec",
        "cursor",
        "seed",
        "rng",
        "emitted",
        "delays_spent",
        "pending_gap",
        "in_flight_child",
    )

    def __init__(
        self,
        id: str,
        caller: str,
        session: Optional[str],
        component: str,
        interface: str,
        operation: str,
        ambient_tx: Optional[str],
        submitted_at: int,
        parent: Optional["_Invocation"],
    ) -> None:
        self.id = id
        self.caller = caller
        self.session = session
        self.component = component
        self.interface = interface
        self.operation = operation
        self.ambient_tx = ambient_tx
        self.tx: Optional[str] = None
        self.started_tx = False
        self.submitted_at = submitted_at
        self.parent = parent


class _Instance:
    __slots__ = ("key", "state", "session", "current", "invocations_served")

    def __init__(self, key: str) -> None:
        self.key = key
        self.state: dict[str, object] = {}
        self.session: Optional[str] = None
        self.current: Optional[_Invocation] = None
        self.invocations_served = 0


BARRIER_OPEN = "Open"
BARRIER_DRAINING = "Draining"
BARRIER_CLOSED = "Closed"


class _Container:
    __slots__ = (
        "spec",
        "pooled",
        "gated",
        "descriptor",
        "stateful",
        "entity",
        "receiver",
        "started",
        "instances",
        "free",
        "pool_wait",
        "created",
        "pool_size",
        "barrier_mode",
        "barrier_held",
        "executing",
        "touching_txs",
        "quiescence_waiters",
        "bound_store",
        "bound_queue",
    )

    def __init__(self, spec: ContainerSpec, descriptor: ComponentDescriptor) -> None:
        self.spec = spec
        # a barrier holds calls only where the chain gates them ahead of pooling
        chain = spec.interceptor_chain
        self.pooled = _POOLING in chain
        ahead = chain[: chain.index(_POOLING)] if self.pooled else chain
        self.gated = _CLEAN_SHUTDOWN in ahead or _REDEPLOY_BARRIER in ahead
        self.bound_store: Optional[str] = descriptor.data_store
        self.bound_queue: Optional[str] = descriptor.queue
        self.host(descriptor)
        self.started = False
        self.instances: list[_Instance] = []
        self.free: list[_Instance] = []
        self.pool_wait: list[_Invocation] = []
        self.created = 0
        self.pool_size = spec.pool_size
        self.barrier_mode = BARRIER_OPEN
        self.barrier_held: list[_Invocation] = []
        self.executing = 0
        self.touching_txs: set[str] = set()
        self.quiescence_waiters: list[Callable[[], None]] = []

    def host(self, descriptor: ComponentDescriptor) -> None:
        """Host ``descriptor`` and record what the hot path reads of it.

        Called once ``bound_queue`` is set: only a container bound to a queue
        gets a receiver operation.
        """
        self.descriptor = descriptor
        self.stateful = descriptor.kind is _STATEFUL
        self.entity = descriptor.kind is _ENTITY
        # a message delivered to a bound container calls the first operation
        # of its first provided interface
        self.receiver = None
        if self.bound_queue is not None and descriptor.provided and descriptor.provided[0].operations:
            first = descriptor.provided[0]
            self.receiver = (first.name, first.operations[0].name)

    @property
    def name(self) -> str:
        return self.descriptor.name

    def has_interceptor(self, kind: InterceptorKind) -> bool:
        return kind in self.spec.interceptor_chain


class _Queue:
    def __init__(self) -> None:
        self.items: deque[tuple[int, str]] = deque()  # (enqueue seq, payload)
        self.paused = False
        self.enqueued = 0


class _Transaction:
    __slots__ = ("id", "root_invocation", "writes", "touched")

    def __init__(self, id: str, root_invocation: str) -> None:
        self.id = id
        self.root_invocation = root_invocation
        self.writes: list[tuple] = []  # (store, key, column, value)
        self.touched: set[str] = set()


class Engine:
    """One deterministic simulated runtime; drive it from a single control flow."""

    def __init__(
        self,
        config: ApplicationConfiguration,
        seed: int = 0,
        drain_timeout: int = 1000,
    ) -> None:
        self.config = config
        self.seed = seed
        self.drain_timeout = drain_timeout
        self.clock = 0
        self.log = EventLog()
        self._events = self.log.events  # what _emit appends to
        # (time, priority class, sequence number, function, its arguments)
        self._heap: list[tuple[int, int, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self.containers: dict[str, _Container] = {}
        self.stores: dict[str, dict[str, dict[str, str]]] = {
            name: {} for name, _ in config.data_stores
        }
        self.queues: dict[str, _Queue] = {name: _Queue() for name in config.queues}
        self.transactions: dict[str, _Transaction] = {}
        self.remote_refs: dict[str, set[str]] = {}
        self._invalidated_sessions: set[str] = set()
        self._violation: Optional[ProtocolViolation] = None
        # what a snapshot reads, kept where it changes: the containers with a
        # running call, those a live transaction touches, and each
        # container's instance keys in pool order (none before its first instance)
        self._busy: set[str] = set()
        self._touched: set[str] = set()
        self._pool_keys: dict[str, tuple[str, ...]] = {}
        # queue -> its receiver: the first container, in deployment order, bound to it
        self._receivers: dict[str, _Container] = {}
        components = config.components()
        for spec in config.containers:
            container = _Container(spec, components[spec.hosted_component])
            self.containers[spec.hosted_component] = container
            if container.bound_queue is not None:
                self._receivers.setdefault(container.bound_queue, container)
        self.start_all()

    # ------------------------------------------------------------------
    # Scheduling core
    # ------------------------------------------------------------------

    def _at(self, time: int, prio: int, fn: Callable[..., None], *args) -> None:
        """Run ``fn(*args)`` at ``time`` in priority class ``prio``."""
        if time < self.clock:
            raise EngineFault(f"cannot schedule into the past ({time} < {self.clock})")
        self._seq += 1
        heapq.heappush(self._heap, (time, prio, self._seq, fn, args))

    def schedule(self, time: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` at ``time`` with the barrier transitions of that instant."""
        self._at(time, PRIO_BARRIER, fn)

    def run(
        self, until: Optional[int] = None, stop_when: Optional[Callable[[], bool]] = None
    ) -> tuple[EventLog, "Engine"]:
        """Process events in order until the horizon, a condition, or exhaustion.

        Raises the pending ProtocolViolation, if one was detected, after the
        offending event has been logged.
        """
        heap, pop = self._heap, heapq.heappop
        horizon = until if until is not None else float("inf")
        stopped = stop_when is not None and stop_when()
        while heap and not stopped and heap[0][0] <= horizon:
            self.clock, _, _, fn, args = pop(heap)
            fn(*args)
            if self._violation is not None:
                raise self._violation
            if stop_when is not None:
                stopped = stop_when()
        if until is not None and until > self.clock and not stopped:
            self.clock = until
        return self.log, self

    def _emit(self, kind: str, payload: dict) -> None:
        """Log one event, as ``EventLog.append`` would, without its extra call.

        The log takes ownership of ``payload``, which each caller builds as a
        literal (cheaper than collecting keyword arguments).
        """
        events, t = self._events, self.clock
        if events and t < events[-1][0]:
            raise EngineFault("event log time went backwards")
        events.append(_new_event(Event, (t, kind, payload)))

    # ------------------------------------------------------------------
    # Scenario loading
    # ------------------------------------------------------------------

    def load_scenario(self, scenario: WorkloadScenario) -> None:
        validate_scenario(scenario, self.config)
        self.seed = scenario.seed
        for client in scenario.clients:
            for idx, entry in enumerate(client.script):
                if isinstance(entry, ScriptCall):
                    inv = _Invocation(
                        f"{client.id}:{idx}", f"session:{client.id}", client.id,
                        entry.component, entry.interface, entry.operation, None, entry.at, None,
                    )
                    self._at(entry.at, PRIO_DISPATCH, self._dispatch, inv)
                else:
                    self._at(entry.at, PRIO_DISPATCH, self._home_action, client, entry)
        for message in scenario.messages:
            self._at(message.at, PRIO_DISPATCH, self.enqueue_message, message.queue, message.payload)

    def _home_action(self, client: ClientSession, action: HomeAction) -> None:
        container = self.containers.get(action.component)
        if container is None or not container.has_interceptor(InterceptorKind.HOME_TRACKING):
            return
        if client.access is not Access.REMOTE:
            return  # local handles never constrain redeployment
        refs = self.remote_refs.setdefault(action.component, set())
        if action.action in ("create", "find"):
            refs.add(client.id)
        else:
            refs.discard(client.id)

    # ------------------------------------------------------------------
    # Dispatch pipeline (the interceptor chain)
    # ------------------------------------------------------------------

    def _dispatch(self, inv: _Invocation) -> None:
        container = self.containers.get(inv.component)
        if container is None or not container.started:
            self._deny(inv, "container-not-started")
            return
        spec = container.descriptor.provided_spec(inv.interface, inv.operation)
        if spec is None:
            self._missing_operation(inv)
            return
        # the gate acts only while a barrier is up;
        # TxDemarcation needs no stage: a transaction begins in _begin
        if container.barrier_mode != BARRIER_OPEN and container.gated:
            if not self._joins_active_tx(inv, spec):
                self._hold(container, inv)
                return
            if container.barrier_mode == BARRIER_CLOSED:
                if self._tx_inside_barricade(inv.ambient_tx):
                    # some drain is waiting on this transaction:
                    # fall back to draining until it completes
                    container.barrier_mode = BARRIER_DRAINING
                else:
                    # new outside work: park it until release
                    self._hold(container, inv)
                    return
        if not container.pooled:
            raise EngineFault(f"container {container.name!r} chain has no Pooling stage")
        instance = self._acquire_instance(container, inv)
        if instance is None:
            container.pool_wait.append(inv)
            return
        self._begin(container, inv, spec, instance)

    def _joins_active_tx(self, inv: _Invocation, spec: OperationSpec) -> bool:
        return spec.tx_attribute is _JOINS and inv.ambient_tx in self.transactions

    def _tx_inside_barricade(self, tx_id: Optional[str]) -> bool:
        """Whether some barricaded container's drain depends on this transaction."""
        tx = self.transactions.get(tx_id) if tx_id else None
        if tx is None:
            return False
        for name in tx.touched:
            container = self.containers.get(name)
            if container is not None and container.barrier_mode != BARRIER_OPEN:
                return True
        return False

    def _hold(self, container: _Container, inv: _Invocation) -> None:
        container.barrier_held.append(inv)
        self._emit(
            INVOCATION_HELD,
            {
                "id": inv.id,
                "component": inv.component,
                "operation": inv.operation,
                "session": inv.session,
                "submitted_at": inv.submitted_at,
            },
        )

    def _deny(self, inv: _Invocation, reason: str) -> None:
        self._emit(
            INVOCATION_DENIED,
            {
                "id": inv.id,
                "component": inv.component,
                "session": inv.session,
                "reason": reason,
            },
        )
        if inv.parent is not None:
            # the caller absorbs the failure and carries on; no abort
            self._child_returned(inv.parent)

    def _missing_operation(self, inv: _Invocation) -> None:
        if inv.parent is None:
            # stale client stub after a structural change: the session is broken
            if inv.session is not None and inv.session not in self._invalidated_sessions:
                self._invalidated_sessions.add(inv.session)
                self._emit(
                    SESSION_INVALIDATED,
                    {
                        "session": inv.session,
                        "reason": f"operation {inv.component}.{inv.operation} no longer provided",
                    },
                )
            self._deny(inv, "missing-operation")
            return
        # a component promised this call in its automaton: broken protocol wiring
        self._violation = ProtocolViolation(
            f"{inv.caller} called {inv.component}.{inv.operation} which is not provided"
        )
        self._emit(
            INVOCATION_DENIED,
            {
                "id": inv.id,
                "component": inv.component,
                "session": inv.session,
                "reason": "protocol-violation",
            },
        )

    # ------------------------------------------------------------------
    # Pooling
    # ------------------------------------------------------------------

    def _acquire_instance(self, container: _Container, inv: _Invocation) -> Optional[_Instance]:
        if container.stateful:
            binding = inv.session or inv.caller
            for instance in container.instances:
                if instance.session == binding:
                    return instance if instance.current is None else None
            for instance in container.free:  # claim a never-bound warm instance
                if instance.session is None:
                    container.free.remove(instance)
                    instance.session = binding
                    return instance
            if len(container.instances) < container.pool_size:
                instance = self._create_instance(container)
                instance.session = binding
                return instance
            return None
        if container.free:
            return container.free.pop(0)
        if len(container.instances) < container.pool_size:
            return self._create_instance(container, warm=False)
        return None

    def _create_instance(self, container: _Container, warm: bool = False) -> _Instance:
        key = f"{container.name}#{container.created}"
        container.created += 1
        instance = _Instance(key)
        container.instances.append(instance)
        self._pool_keys[container.name] = self._pool_keys.get(container.name, ()) + (key,)
        if warm:
            container.free.append(instance)
        return instance

    def _service_pool_queue(self, container: _Container) -> None:
        waiting = container.pool_wait
        if not waiting:
            return
        # completions are always scheduled, so nothing frees an instance in this
        # loop: one refusal refuses every later waiter unless bindings decide
        kept: list[_Invocation] = []
        served = 0  # waiters from the head that started or were kept
        # the loop also reaches waiters that _begin re-dispatches onto this container
        for inv in waiting:
            spec = container.descriptor.operation_spec(inv.operation)
            if spec is None:
                kept.append(inv)
            elif (instance := self._acquire_instance(container, inv)) is not None:
                self._begin(container, inv, spec, instance)
            elif container.stateful:
                kept.append(inv)
            else:
                break
            served += 1
        waiting[:served] = kept  # in place: the refused tail stays as it is

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _begin(self, container: _Container, inv: _Invocation, spec: OperationSpec, instance: _Instance) -> None:
        # resolve the transaction: join the ambient one, start one, or run without
        attr = spec.tx_attribute
        if attr is _NO_TX and container.entity:
            attr = _STARTS_NEW  # entity work is always transacted
        tx = None
        if attr is _JOINS and inv.ambient_tx in self.transactions:
            tx = self.transactions[inv.ambient_tx]
            inv.tx = inv.ambient_tx
        elif attr is _STARTS_NEW or attr is _JOINS:
            # Joins with no active ambient transaction starts its own
            tx = _Transaction(f"tx:{inv.id}", inv.id)
            self.transactions[tx.id] = tx
            inv.tx = tx.id
            inv.started_tx = True
            self._emit(TX_BEGIN, {"tx": tx.id, "root": inv.id})
        if tx is not None:
            tx.touched.add(inv.component)
            container.touching_txs.add(tx.id)
            self._touched.add(inv.component)
        container.executing += 1
        self._busy.add(inv.component)
        instance.invocations_served += 1
        instance.current = inv
        inv.container = container
        inv.instance = instance
        inv.spec = spec
        inv.cursor = spec.cursor_at(spec.effect_automaton.initial) if spec.effect_automaton else None
        inv.seed = self.seed
        inv.rng = None  # created at the first choice
        inv.emitted = 0
        inv.delays_spent = 0
        inv.pending_gap = 0
        inv.in_flight_child = None
        self._emit(
            INVOCATION_START,
            {
                "id": inv.id,
                "component": inv.component,
                "interface": inv.interface,
                "operation": inv.operation,
                "caller": inv.caller,
                "session": inv.session,
                "instance": instance.key,
                "tx": inv.tx,
                "submitted_at": inv.submitted_at,
            },
        )
        self._continue_execution(inv)

    def _continue_execution(self, inv: _Invocation) -> None:
        cursor = inv.cursor
        if cursor is None:
            pick = None  # no automaton: the call runs for its duration
        elif inv.emitted >= _WALK_CAP:
            pick = _toward_final(cursor.automaton, cursor.current)
        else:
            choices = cursor.automaton.choices(cursor.current)
            if len(choices) > 1:
                if inv.rng is None:
                    inv.rng = random.Random(f"{inv.seed}|{inv.id}")
                pick = inv.rng.choice(choices)
            else:
                pick = choices[0]
        if pick is None:
            tail = max(0, inv.spec.duration - inv.delays_spent)
            self._at(self.clock + tail, PRIO_COMPLETION, self._complete, inv)
            return
        # the call fires now; the transition's min_delay elapses after it returns
        inv.delays_spent += pick.min_delay
        inv.pending_gap = pick.min_delay
        self._emit_call(inv, pick)

    def _emit_call(self, inv: _Invocation, transition) -> None:
        # the transition is one of the current state's own choices
        inv.cursor = inv.spec.cursor_at(transition.target)
        label: CallLabel = transition.label
        provider = self.config.provider_of(inv.component, label.interface)
        if provider is None:
            if self.config.is_declared_external(inv.component, label.interface):
                # external call: outside the simulated system, takes no time
                self._child_returned(inv)
                return
            self._violation = ProtocolViolation(
                f"{inv.component} calls unwired interface {label.interface!r}"
            )
            return
        child = _Invocation(
            f"{inv.id}.{inv.emitted}", inv.instance.key, inv.session,
            provider, label.interface, label.operation, inv.tx, self.clock, inv,
        )
        inv.emitted += 1
        inv.in_flight_child = child
        self._dispatch(child)

    def _child_returned(self, inv: _Invocation) -> None:
        inv.in_flight_child = None
        gap, inv.pending_gap = inv.pending_gap, 0
        if gap:
            self._at(self.clock + gap, PRIO_DISPATCH, self._continue_execution, inv)
        else:
            self._continue_execution(inv)

    def _complete(self, inv: _Invocation) -> None:
        container, instance = inv.container, inv.instance
        if container.entity and inv.tx is not None:
            self._record_entity_write(container, inv)
        self._emit(
            INVOCATION_END,
            {
                "id": inv.id,
                "component": inv.component,
                "operation": inv.operation,
                "session": inv.session,
                "instance": instance.key,
                "tx": inv.tx,
                "submitted_at": inv.submitted_at,
            },
        )
        instance.current = None
        container.executing -= 1
        if not container.executing:
            self._busy.discard(inv.component)
        if container.stateful:
            # deterministic conversational state: remember the last call per field
            for field_name in container.descriptor.state_fields:
                instance.state[field_name] = f"{inv.operation}#{instance.invocations_served}"
        else:
            container.free.append(instance)
        if inv.started_tx and inv.tx is not None:
            self._commit_transaction(self.transactions[inv.tx])
        if container.pool_wait:
            self._service_pool_queue(container)
        if container.barrier_mode == BARRIER_DRAINING:
            self._maybe_check_quiescence(container)
        if inv.parent is not None:
            self._child_returned(inv.parent)

    def _record_entity_write(self, container: _Container, inv: _Invocation) -> None:
        store = container.bound_store
        if store is None or store not in self.stores:
            raise EngineFault(f"entity container {container.name!r} has no bound store")
        key = inv.session or inv.id.split(".")[0]
        value = f"{inv.operation}:{inv.id}"
        tx = self.transactions[inv.tx]
        for column in container.descriptor.entity_schema:
            tx.writes.append((store, key, column, value))

    def _commit_transaction(self, tx: _Transaction) -> None:
        """Apply a transaction's writes and forget it: only live ids stay."""
        del self.transactions[tx.id]
        for store, key, column, value in tx.writes:
            self.stores[store].setdefault(key, {})[column] = value
        # the log takes the list itself; JSON writes each tuple as an array
        self._emit(TX_COMMIT, {"tx": tx.id, "root": tx.root_invocation, "writes": tx.writes})
        self._untouch(tx)

    def _untouch(self, tx: _Transaction) -> None:
        """A transaction has ended: it no longer keeps any container from quiescence."""
        for name in sorted(tx.touched):
            container = self.containers.get(name)
            if container is not None:
                container.touching_txs.discard(tx.id)
                if not container.touching_txs:
                    self._touched.discard(name)
                self._maybe_check_quiescence(container)

    # ------------------------------------------------------------------
    # Barrier
    # ------------------------------------------------------------------

    def activate_barrier(self, component: str) -> None:
        container = self._container(component)
        if container.barrier_mode != BARRIER_OPEN:
            raise AlreadyBarricaded(f"barrier on {component!r} is {container.barrier_mode}")
        container.barrier_mode = BARRIER_DRAINING
        self._emit(BARRIER_ACTIVATED, {"component": component})
        # pool waiters that would start new work are held like new arrivals;
        # waiters joining active transactions must run or the drain never ends
        still_waiting: list[_Invocation] = []
        for inv in container.pool_wait:
            spec = container.descriptor.operation_spec(inv.operation)
            if spec is not None and self._joins_active_tx(inv, spec):
                still_waiting.append(inv)
            else:
                self._hold(container, inv)
        container.pool_wait = still_waiting
        self._maybe_check_quiescence(container)

    def _maybe_check_quiescence(self, container: _Container) -> None:
        if container.barrier_mode != BARRIER_DRAINING:
            return
        if container.touching_txs or container.executing > 0 or container.pool_wait:
            return
        container.barrier_mode = BARRIER_CLOSED
        self._emit(QUIESCENCE_REACHED, {"component": container.name})
        waiters, container.quiescence_waiters = container.quiescence_waiters, []
        for waiter in waiters:
            waiter()

    def barrier_state(self, component: str) -> str:
        """The barrier mode of a container: Open, Draining or Closed."""
        return self._container(component).barrier_mode

    def on_quiescent(self, component: str, fn: Callable[[], None]) -> bool:
        """Whether the barrier on ``component`` is closed now; if not, run ``fn`` once it closes.

        Releasing the barrier first drops ``fn`` uncalled.

        A closed barrier returns True and leaves ``fn`` uncalled, so a caller
        walking many already-closed containers loops instead of recursing.
        """
        container = self._container(component)
        if container.barrier_mode == BARRIER_CLOSED:
            return True
        container.quiescence_waiters.append(fn)
        return False

    def held_calls(self, component: str) -> tuple[tuple[str, str, str], ...]:
        """(id, interface, operation) of each call held at the barrier, in arrival order."""
        return tuple(
            (inv.id, inv.interface, inv.operation) for inv in self._container(component).barrier_held
        )

    def release_barrier(self, component: str) -> None:
        container = self._container(component)
        if container.barrier_mode == BARRIER_OPEN:
            return  # idempotent: releasing an open barrier acknowledges
        container.barrier_mode = BARRIER_OPEN
        container.quiescence_waiters = []  # only an abandoned plan still waits here
        self._emit(BARRIER_RELEASED, {"component": component})
        held, container.barrier_held = container.barrier_held, []
        held.sort(key=lambda inv: (inv.submitted_at, inv.id))  # FIFO, ties by id
        for inv in held:
            self._at(self.clock, PRIO_DISPATCH, self._dispatch, inv)
        if container.bound_queue:
            self._at(self.clock, PRIO_DISPATCH, self._pump_queue, container.bound_queue)

    # ------------------------------------------------------------------
    # Queues and message-driven delivery
    # ------------------------------------------------------------------

    def enqueue_message(self, queue: str, payload: str) -> None:
        q = self._queue(queue)
        q.items.append((q.enqueued, payload))
        self._emit(MESSAGE_ENQUEUED, {"queue": queue, "payload": payload, "seq": q.enqueued})
        q.enqueued += 1
        self._pump_queue(queue)

    def pause_queue(self, queue: str) -> None:
        q = self._queue(queue)
        if not q.paused:
            q.paused = True
            self._emit(QUEUE_PAUSED, {"queue": queue})

    def resume_queue(self, queue: str) -> None:
        q = self._queue(queue)
        if q.paused:
            q.paused = False
            self._emit(QUEUE_RESUMED, {"queue": queue})
        self._pump_queue(queue)

    def _index_receiver(self, queue: Optional[str]) -> None:
        """Re-point ``queue`` at the first container, in deployment order, bound to it."""
        if queue is None:
            return
        for container in self.containers.values():
            if container.bound_queue == queue:
                self._receivers[queue] = container
                return
        self._receivers.pop(queue, None)

    def _pump_queue(self, queue: str) -> None:
        q = self._queue(queue)
        if q.paused:
            return
        container = self._receivers.get(queue)
        if container is None or not container.started:
            return
        if container.barrier_mode != BARRIER_OPEN:
            return  # barrier doubles as delivery pause for the hosted receiver
        if container.receiver is None:
            raise EngineFault(f"receiver interface of {container.name!r} has no operations")
        interface, operation = container.receiver
        while q.items and not q.paused and container.barrier_mode == BARRIER_OPEN:
            seq, payload = q.items.popleft()
            self._emit(MESSAGE_DELIVERED, {"queue": queue, "payload": payload, "seq": seq})
            inv = _Invocation(
                f"msg:{queue}:{seq}", f"queue:{queue}", None,
                container.name, interface, operation, None, self.clock, None,
            )
            self._dispatch(inv)

    # ------------------------------------------------------------------
    # Swap, sync, pool size
    # ------------------------------------------------------------------

    def swap_component(
        self,
        component: str,
        target: ApplicationConfiguration,
        shadow_store: Optional[str] = None,
    ) -> None:
        """Host ``target``'s ``component`` under a closed barrier and adopt ``target`` as ``config``.

        Stateful instances keep their sessions and conversational state, which
        the new version takes over as they are (no instance runs behind a
        closed barrier); pooled instances of the interchangeable kinds are
        discarded and recreated.  The barrier stays closed: held invocations
        replay FIFO against the new version once ``release_barrier`` opens it.
        """
        container = self._container(component)
        if container.barrier_mode != BARRIER_CLOSED:
            raise NotQuiescent(f"container {component!r} barrier is {container.barrier_mode}")
        old, new = container.descriptor, target.component(component)
        if container.stateful:
            if tuple(old.state_fields) != tuple(new.state_fields):
                raise StateShapeMismatch(
                    f"{component!r}: state fields {list(old.state_fields)} -> "
                    f"{list(new.state_fields)}"
                )
        else:
            container.instances = []
            container.free = []
            container.created = 0
            self._pool_keys.pop(component, None)
            self._create_instance(container, warm=True)
        if shadow_store is not None:
            if shadow_store not in self.stores:
                raise EngineFault(f"shadow store {shadow_store!r} does not exist")
            container.bound_store = shadow_store
        elif new.data_store is not None:
            if new.data_store not in self.stores:
                raise EngineFault(f"data store {new.data_store!r} does not exist")
            container.bound_store = new.data_store
        if new.queue is not None and new.queue != container.bound_queue:
            old_queue, container.bound_queue = container.bound_queue, new.queue
            self._index_receiver(old_queue)
            self._index_receiver(new.queue)
        container.host(new)
        self.config = target
        self._emit(
            SWAP_APPLIED,
            {
                "component": component,
                "from_version": old.version,
                "to_version": new.version,
            },
        )

    def sync_shadow_store(
        self, component: str, shadow_store: str, column_mapping: dict[str, str]
    ) -> int:
        """Copy committed rows through the column mapping; returns the row count."""
        container = self._container(component)
        source = container.bound_store
        if source is None or source not in self.stores:
            raise EngineFault(f"container {component!r} has no bound store to sync from")
        if shadow_store not in self.stores:
            raise EngineFault(f"shadow store {shadow_store!r} does not exist")
        target = self.stores[shadow_store]
        for key in sorted(self.stores[source]):
            row = self.stores[source][key]
            target[key] = {
                column_mapping[col]: value for col, value in row.items() if col in column_mapping
            }
        if len(target) != len(self.stores[source]):
            raise EngineFault(
                f"row count mismatch after sync: {len(self.stores[source])} -> {len(target)}"
            )
        self._emit(
            STORE_SYNCED,
            {
                "component": component,
                "source": source,
                "target": shadow_store,
                "rows": len(target),
            },
        )
        return len(target)

    def set_pool_size(self, component: str, pool_size: int) -> None:
        if pool_size < 1:
            raise ValidationError("pool_size must be >= 1")
        container = self._container(component)
        container.pool_size = pool_size
        self._emit(POOL_SIZE_CHANGED, {"component": component, "pool_size": pool_size})
        self._service_pool_queue(container)

    # ------------------------------------------------------------------
    # Lifecycle support
    # ------------------------------------------------------------------

    def start_all(self) -> None:
        for container in self.containers.values():
            self.start_container(container.name)

    def start_container(self, component: str) -> None:
        container = self._container(component)
        if container.started:
            return
        container.started = True
        if not container.instances:
            self._create_instance(container, warm=True)
        if container.bound_queue:
            self._pump_queue(container.bound_queue)

    def stop_container(self, component: str) -> None:
        container = self._container(component)
        container.started = False

    def add_component(
        self,
        descriptor: ComponentDescriptor,
        container_spec: Optional[ContainerSpec] = None,
        wiring: tuple[Wire, ...] = (),
        started: bool = False,
    ) -> None:
        if descriptor.name in self.containers:
            raise ValidationError(f"component {descriptor.name!r} already deployed")
        spec = container_spec or ContainerSpec(hosted_component=descriptor.name)
        self.config = self.config.with_added(descriptor, spec, wiring)
        container = self.containers[descriptor.name] = _Container(spec, descriptor)
        if container.bound_queue is not None:
            self._receivers.setdefault(container.bound_queue, container)
        if started:
            self.start_container(descriptor.name)

    def remove_component(self, component: str) -> None:
        container = self._container(component)
        if container.executing:
            raise EngineFault(f"cannot remove {component!r} while invocations run")
        del self.containers[component]
        self._touched.discard(component)
        self._pool_keys.pop(component, None)
        if self._receivers.get(container.bound_queue) is container:
            self._index_receiver(container.bound_queue)
        self.config = self.config.without_component(component)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _container(self, component: str) -> _Container:
        container = self.containers.get(component)
        if container is None:
            raise ScenarioError(f"unknown component {component!r}")
        return container

    def _queue(self, name: str) -> _Queue:
        queue = self.queues.get(name)
        if queue is None:
            raise UnknownQueue(f"unknown queue {name!r}")
        return queue

    def snapshot(self) -> RuntimeSnapshot:
        """Capture the current state as an immutable value.

        Only the containers with a running call are walked: each busy
        instance becomes a record and the rest are its idle keys.  Every
        other container's keys are copied from the key index.
        """
        busy: list[InstanceSnapshot] = []
        idle = dict(self._pool_keys)
        for name in sorted(self._busy):
            keys: list[str] = []
            for instance in self.containers[name].instances:
                call = instance.current
                if call is None:
                    keys.append(instance.key)
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
            if keys:
                idle[name] = tuple(keys)
            else:
                del idle[name]
        active = tuple(
            (name, tuple(sorted(self.containers[name].touching_txs))) for name in sorted(self._touched)
        )
        refs = tuple(
            (component, tuple(sorted(clients)))
            for component, clients in sorted(self.remote_refs.items())
            if clients
        )
        depths = tuple((name, len(q.items)) for name, q in sorted(self.queues.items()))
        return RuntimeSnapshot(
            time=self.clock,
            busy=tuple(busy),
            idle=MappingProxyType(idle),
            active_transactions=active,
            remote_refs=refs,
            queue_depths=depths,
            config=self.config,
        )


def run(
    config: ApplicationConfiguration,
    scenario: WorkloadScenario,
    until: int,
    drain_timeout: int = 1000,
) -> tuple[EventLog, Engine]:
    """Build an engine, load the scenario, and run to the horizon."""
    engine = Engine(config, seed=scenario.seed, drain_timeout=drain_timeout)
    engine.load_scenario(scenario)
    return engine.run(until=until)
