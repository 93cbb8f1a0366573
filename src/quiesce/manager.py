"""Reconfiguration management.

Turns a reconfiguration request into an executable plan in four stages:
classify what changed (request analysis: ``analyse`` resolves each target
once, to its deployed descriptor, the descriptor it runs after the swap and
the change kind between them), decide per component type whether the
change is safe (consistency rules), compute the minimal set of components
to barricade (dependency analysis), and run the ordered steps against the
engine (plan execution).  ``check_mode`` is the one place the redeploy mode
is applied: strict refuses structural diffs before planning.

Both redeploy forms take one path at their request instant: a request
document (``run_scenario_with_request``) and an archive diff
(``lifecycle.DeploymentManager.redeploy``) each call ``check_mode``, then
``build_plan`` from a fresh snapshot, then ``execute_plan``, the one way
to run a plan.  A refused request raises Rejection before any barrier goes
up.  The executor drives the engine through its public scheduling and
barrier calls, and the report folds the plan's own events, from its first
step to the event that finishes it.

Safety is decided before anything is touched: one unsafe component, or one
composition finding on the target configuration the swaps will install,
rejects the whole request.  Barriers go up on the whole affected set at once
(clients first), quiescence is awaited clients-first, swaps happen only
after every affected container is quiescent and re-verify closure at the
instant they apply, and barriers come down providers first — together with
the engine's closed-barrier re-admission rule this is what makes the
transaction-exclusivity guarantee hold.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, field, replace as dc_replace
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Optional

from . import engine as rt
from .depgraph import (
    ReconfigurationWindow,
    StaticDependencyGraph,
    _callers_closure,
    affected_set,
    build_runtime_graph,
    build_static_graph,
)
from .documents import decode, record, typed
from .errors import (
    EngineFault,
    ParseError,
    Rejection,
    SnapshotStale,
    UnknownComponent,
    ValidationError,
)
from .model import (
    Access,
    ApplicationConfiguration,
    ChangeKind,
    ComponentDescriptor,
    ComponentKind,
    ConsistencyFinding,
    check_composition,
    diff_versions,
    parse_component,
)
from .snapshot import RuntimeSnapshot


class Verdict(str, Enum):
    SAFE = "Safe"
    SAFE_WITH_PAUSE = "SafeWithPause"
    SAFE_WITH_MIGRATION = "SafeWithMigration"
    UNSAFE = "Unsafe"


class Reason(str, Enum):
    HAS_CONVERSATIONAL_STATE = "HasConversationalState"
    UNCHANGED_REMOTE_CLIENT_REFS = "UnchangedRemoteClientRefs"
    SCHEMA_CHANGE_NEEDS_MIGRATION = "SchemaChangeNeedsMigration"
    NO_CLIENT_VISIBLE_IDENTITY = "NoClientVisibleIdentity"
    LOCAL_ONLY = "LocalOnly"
    STATELESS_INTERCHANGEABLE = "StatelessInterchangeable"


@dataclass(frozen=True)
class SafetyVerdict:
    component: str
    verdict: Verdict
    reasons: tuple[Reason, ...]

    def __post_init__(self) -> None:
        if self.verdict is Verdict.UNSAFE and not self.reasons:
            raise ValidationError("unsafe verdict requires at least one reason")

    def to_json(self) -> dict:
        return {
            "component": self.component,
            "verdict": self.verdict.value,
            "reasons": [r.value for r in self.reasons],
        }


@dataclass(frozen=True)
class TargetChange:
    component: str
    descriptor: Optional[ComponentDescriptor]  # None: redeploy the same version in place


@dataclass(frozen=True)
class QosChange:
    component: str
    pool_size: int

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ValidationError(f"qos change for {self.component!r}: pool_size must be >= 1")


@dataclass(frozen=True)
class EntityMigration:
    component: str
    shadow_store: str
    column_mapping: tuple[tuple[str, str], ...]

    def mapping(self) -> dict[str, str]:
        return dict(self.column_mapping)


@dataclass(frozen=True)
class ReconfigurationRequest:
    id: str
    targets: tuple[TargetChange, ...]
    qos_changes: tuple[QosChange, ...] = ()
    entity_migration: tuple[EntityMigration, ...] = ()
    requested_at: int = 0

    def __post_init__(self) -> None:
        if not self.targets and not self.qos_changes:
            raise ValidationError("request needs targets or qos_changes")
        for field_name, changes in (("targets", self.targets), ("qos_changes", self.qos_changes)):
            seen: set[str] = set()
            for change in changes:
                if change.component in seen:
                    raise ValidationError(f"request {field_name} name component {change.component!r} twice")
                seen.add(change.component)

    def migration_for(self, component: str) -> Optional[EntityMigration]:
        for m in self.entity_migration:
            if m.component == component:
                return m
        return None


# Plan steps
ACTIVATE_BARRIER = "ActivateBarrier"
AWAIT_QUIESCENCE = "AwaitQuiescence"
PAUSE_QUEUE = "PauseQueue"
SYNC_SHADOW_STORE = "SyncShadowStore"
SWAP = "Swap"
SET_POOL_SIZE = "SetPoolSize"
RESUME_QUEUE = "ResumeQueue"
RELEASE_BARRIER = "ReleaseBarrier"


class PlanStep(NamedTuple):
    kind: str
    component: Optional[str] = None
    queue: Optional[str] = None
    store: Optional[str] = None
    pool_size: Optional[int] = None

    def to_json(self) -> dict:
        doc = {"kind": self.kind}
        for key in ("component", "queue", "store", "pool_size"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        return doc


@dataclass(frozen=True)
class CostModel:
    """Per-step time costs.

    ``estimate_window`` sums all three, plus one ``other`` of slack.
    Running a plan spends only ``swap`` and ``sync``; every other step takes
    no time, so ``other`` only pads the estimate.
    """

    swap: int = 10
    sync: int = 5
    other: int = 1


@dataclass(frozen=True)
class ReconfigurationPlan:
    request: ReconfigurationRequest
    window: ReconfigurationWindow
    affected: frozenset[str]
    steps: tuple[PlanStep, ...]
    target: ApplicationConfiguration  # the configuration once every swap has applied
    verdicts: tuple[SafetyVerdict, ...]

    def to_json(self) -> dict:
        return {
            "request": self.request.id,
            "window": {
                "start": self.window.start,
                "estimated_duration": self.window.estimated_duration,
            },
            "affected": sorted(self.affected),
            "steps": [s.to_json() for s in self.steps],
            "verdicts": [v.to_json() for v in self.verdicts],
        }


@dataclass(frozen=True)
class ReconfigurationReport:
    request_id: str
    outcome: str  # Completed | Rejected | DrainTimeout
    downtime: dict[str, int] = field(default_factory=dict)
    held_count: int = 0
    held_max_wait: int = 0
    verdicts: tuple[SafetyVerdict, ...] = ()
    findings: tuple[ConsistencyFinding, ...] = ()
    affected: frozenset[str] = frozenset()
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "request": self.request_id,
            "outcome": self.outcome,
            "downtime": dict(sorted(self.downtime.items())),
            "held_invocations": {"count": self.held_count, "max_wait": self.held_max_wait},
            "verdicts": [v.to_json() for v in self.verdicts],
            "findings": [
                {"kind": f.kind, "subject": f.subject, "detail": f.detail} for f in self.findings
            ],
            "affected": sorted(self.affected),
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# Request analysis
# ---------------------------------------------------------------------------


def analyse(
    request: ReconfigurationRequest, config: ApplicationConfiguration
) -> list[tuple[ComponentDescriptor, ComponentDescriptor, ChangeKind]]:
    """One ``(deployed, new, kind)`` triple per target, in request order.

    ``new`` is the descriptor the target runs after its swap; an in-place
    redeploy bumps the deployed version.  Raises UnknownComponent for a
    target or QoS change that names no deployed component, and the
    ``diff_versions`` errors for a descriptor that cannot replace the
    deployed one; the first faulty target in request order wins.
    """
    qos_components = {q.component for q in request.qos_changes}
    changes = []
    for target in request.targets:
        deployed = config.component(target.component)
        if deployed is None:
            raise UnknownComponent(f"target {target.component!r} is not deployed")
        new = target.descriptor
        if new is None:
            new = dc_replace(deployed, version=deployed.version + 1)
        kind = diff_versions(deployed, new, qos_change=target.component in qos_components)
        changes.append((deployed, new, kind))
    for q in request.qos_changes:
        if config.component(q.component) is None:
            raise UnknownComponent(f"qos change names unknown component {q.component!r}")
    return changes


def check_mode(request: ReconfigurationRequest, config: ApplicationConfiguration, mode: str) -> None:
    """Refuse a request its redeploy mode forbids, before anything is touched.

    Strict mode keeps the runtime configuration the same, so any structural
    diff is a Rejection; weakened mode leaves the decision to the
    component-type safety rules that ``build_plan`` applies.
    """
    if mode == "weakened":
        return
    if mode != "strict":
        raise ValidationError(f"unknown redeploy mode {mode!r}")
    structural = sorted(
        deployed.name for deployed, _, kind in analyse(request, config) if kind is ChangeKind.STRUCTURAL
    )
    if structural:
        raise Rejection(
            f"strict mode: runtime configuration must remain the same; structural diffs on {structural}"
        )


# ---------------------------------------------------------------------------
# Safety classification (the component-type rules)
# ---------------------------------------------------------------------------


def classify_structural_safety(
    component: ComponentDescriptor,
    change: ChangeKind,
    refs: frozenset[str] | set[str],
    migration_available: bool,
    state_shape_changed: bool = False,
) -> SafetyVerdict:
    """Decide whether a change to this component can be applied safely.

    The rule table, by component kind:

    * message-driven: always swappable behind a paused queue — no client
      holds a visible identity;
    * stateful session: structural change never safe (conversational state
      survives only a shape-identical transfer);
    * stateless session: structural change safe exactly when no unchanged
      remote client holds a reference;
    * entity: structural change safe when no unchanged remote client holds a
      reference and a shadow-store migration is available;
    * functional and QoS changes are safe for every kind (stateful
      additionally requires the state shape untouched).

    ``refs`` must already be filtered to *unchanged* remote clients: holders
    that are themselves replaced by the same request do not block.
    """
    refs = frozenset(refs)
    local_only = all(acc is Access.LOCAL for _, acc in component.access) or not component.access

    if component.kind is ComponentKind.MESSAGE_DRIVEN:
        return SafetyVerdict(
            component.name, Verdict.SAFE_WITH_PAUSE, (Reason.NO_CLIENT_VISIBLE_IDENTITY,)
        )

    if change is ChangeKind.STRUCTURAL:
        if component.kind is ComponentKind.STATEFUL_SESSION:
            return SafetyVerdict(
                component.name, Verdict.UNSAFE, (Reason.HAS_CONVERSATIONAL_STATE,)
            )
        if component.kind is ComponentKind.STATELESS_SESSION:
            if refs:
                return SafetyVerdict(
                    component.name, Verdict.UNSAFE, (Reason.UNCHANGED_REMOTE_CLIENT_REFS,)
                )
            reasons = [Reason.STATELESS_INTERCHANGEABLE]
            if local_only:
                reasons.append(Reason.LOCAL_ONLY)
            return SafetyVerdict(component.name, Verdict.SAFE, tuple(reasons))
        # entity
        if refs:
            return SafetyVerdict(
                component.name, Verdict.UNSAFE, (Reason.UNCHANGED_REMOTE_CLIENT_REFS,)
            )
        if migration_available:
            return SafetyVerdict(
                component.name,
                Verdict.SAFE_WITH_MIGRATION,
                (Reason.SCHEMA_CHANGE_NEEDS_MIGRATION,),
            )
        return SafetyVerdict(
            component.name, Verdict.UNSAFE, (Reason.SCHEMA_CHANGE_NEEDS_MIGRATION,)
        )

    # functional or non-functional change
    if component.kind is ComponentKind.STATEFUL_SESSION and state_shape_changed:
        return SafetyVerdict(component.name, Verdict.UNSAFE, (Reason.HAS_CONVERSATIONAL_STATE,))
    reasons = []
    if component.kind is ComponentKind.STATELESS_SESSION:
        reasons.append(Reason.STATELESS_INTERCHANGEABLE)
    if local_only:
        reasons.append(Reason.LOCAL_ONLY)
    return SafetyVerdict(component.name, Verdict.SAFE, tuple(reasons))


def unchanged_remote_refs(
    component: str,
    snapshot: RuntimeSnapshot,
    changed: frozenset[str] | set[str] = frozenset(),
) -> frozenset[str]:
    """Reference holders that would block a structural change of ``component``.

    Unites remote client sessions holding handles (home-interface tracking)
    with the components of the snapshot's configuration wired to it over a
    remote-access interface, then drops holders that are themselves changed
    by the current request.  Sessions are never "changed": only component
    clients can be excluded this way.
    """
    holders: set[str] = set(snapshot.refs_for(component))
    config = snapshot.config
    descriptor = config.component(component)
    if descriptor is None:
        raise UnknownComponent(component)
    remote = [name for name, access in descriptor.access if access is Access.REMOTE]
    for requirer in config._callers.get(component, ()):
        if any(config.provider_of(requirer, interface) == component for interface in remote):
            holders.add(requirer)
    return frozenset(holders - set(changed))


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def _client_first_order(static: StaticDependencyGraph, members: frozenset[str]) -> list[str]:
    """Members ordered so that users come before their providers.

    Kahn's algorithm over the uses-edges restricted to ``members``: a heap
    holds the members none of whose users is left, and the smallest name in
    it goes next.  When the heap is empty every member left is on or behind
    a cycle, and the smallest name left goes next.  Ties and cycles are
    broken by name so plans are reproducible.  Each member enters the heap
    at most once and each uses-edge is walked once, so the order costs
    O((members + edges) log members).
    """
    uses: dict[str, list[str]] = {}  # member -> the members it uses
    waiting: dict[str, int] = {}  # member -> how many of its users are not placed yet
    for m in members:
        callers = {r for r in static.callers.get(m, ()) if r in members and r != m}
        for r in callers:
            uses.setdefault(r, []).append(m)
        waiting[m] = len(callers)
    ready = [m for m, count in waiting.items() if not count]
    heapq.heapify(ready)
    by_name = sorted(members, reverse=True)  # the cycle fallback pops the smallest name left
    order: list[str] = []
    placed: set[str] = set()
    while len(order) < len(members):
        if ready:
            pick = heapq.heappop(ready)
        else:
            while by_name[-1] in placed:
                by_name.pop()
            pick = by_name.pop()
        order.append(pick)
        placed.add(pick)
        for m in uses.get(pick, ()):
            waiting[m] -= 1
            if not waiting[m] and m not in placed:
                heapq.heappush(ready, m)
    return order


def estimate_window(
    request: ReconfigurationRequest,
    static: StaticDependencyGraph,
    costs: CostModel,
) -> ReconfigurationWindow:
    """Conservative completion estimate from the static graph's ancestor closure.

    The affected set depends on the window and the window on the plan's
    steps; the circle is cut by costing the largest plan that could emerge
    (barriers on the whole client closure).  Over-estimating only admits
    more edges, never fewer, so pruning stays safe.
    """
    swap_targets = {t.component for t in request.targets}
    closure = static.ancestors_of(frozenset(swap_targets)) | swap_targets
    descriptors = [static.config.component(c) for c in swap_targets]
    md_queues = {
        d.queue for d in descriptors if d is not None and d.kind is ComponentKind.MESSAGE_DRIVEN
    }
    duration = (
        3 * costs.other * len(closure)  # activate + await + release
        + 2 * costs.other * len(md_queues)  # pause + resume
        + costs.sync * len(request.entity_migration)
        + costs.swap * len(swap_targets)
        + costs.other * len(request.qos_changes)
        + costs.other  # slack; dropping it would change windows, affected sets and logs
    )
    return ReconfigurationWindow(request.requested_at, max(1, duration))


def build_plan(
    request: ReconfigurationRequest,
    snapshot: RuntimeSnapshot,
    blocking: str = "minimal",
    costs: CostModel = CostModel(),
) -> ReconfigurationPlan:
    """Analyse, classify, and order the steps for a request against the snapshot's configuration.

    Under minimal blocking the runtime graph is built only for the instances
    of the components that can reach a target through a wire or through an
    in-flight call in the snapshot.  Every runtime edge follows one of those,
    so the affected set is the one the graph over every instance gives.
    Whole-app blocking builds no runtime graph.

    Raises Rejection (carrying every verdict) when any component is unsafe
    to change, and SnapshotStale when the snapshot is not current.
    """
    if snapshot.time != request.requested_at:
        raise SnapshotStale(
            f"snapshot at {snapshot.time}, request at {request.requested_at}"
        )
    if blocking not in ("minimal", "whole-app"):
        raise ValidationError(f"unknown blocking mode {blocking!r}")
    config = snapshot.config
    changes = sorted(analyse(request, config), key=lambda change: change[0].name)
    swap_targets = {deployed.name for deployed, _, _ in changes}

    target = config
    verdicts: list[SafetyVerdict] = []
    for deployed, new, kind in changes:
        target = target.with_component(new)
        refs = unchanged_remote_refs(deployed.name, snapshot, changed=swap_targets)
        verdicts.append(
            classify_structural_safety(
                deployed,
                kind,
                refs,
                migration_available=request.migration_for(deployed.name) is not None,
                state_shape_changed=tuple(deployed.state_fields) != tuple(new.state_fields),
            )
        )
    unsafe = [v for v in verdicts if v.verdict is Verdict.UNSAFE]
    if unsafe:
        raise Rejection(
            "; ".join(
                f"{v.component}: {','.join(r.value for r in v.reasons)}" for v in unsafe
            ),
            verdicts,
        )

    static = build_static_graph(config)
    window = estimate_window(request, static, costs)

    steps: list[PlanStep] = []
    if swap_targets:
        if blocking == "whole-app":
            affected = frozenset(config.components())
        else:
            in_flight: dict[str, list[str]] = {}  # callee -> the component of each call in flight to it
            for inst in snapshot.busy:
                if inst.in_flight is not None:
                    in_flight.setdefault(inst.in_flight[0], []).append(inst.component)
            reach = _callers_closure(frozenset(swap_targets), static.callers, in_flight)
            callers = RuntimeSnapshot(
                snapshot.time,
                tuple([i for i in snapshot.busy if i.component in reach]),
                {c: snapshot.idle[c] for c in reach if c in snapshot.idle},
                snapshot.active_transactions,
                snapshot.remote_refs,
                snapshot.queue_depths,
                config,
            )
            # the graph is dropped once the affected set is known, before the steps are built
            affected = affected_set(build_runtime_graph(callers, window), static, frozenset(swap_targets))
        order = _client_first_order(static, affected)
        # all barriers go up at once (clients first) so minimal blocking holds
        # a subset of what whole-app blocking would from the same instant;
        # quiescence is then awaited clients-first, and the closed-barrier
        # re-admission rule keeps upstream drains from wedging on a provider
        # that closed while momentarily idle
        for name in order:
            steps.append(PlanStep(ACTIVATE_BARRIER, component=name))
        for name in order:
            steps.append(PlanStep(AWAIT_QUIESCENCE, component=name))
        md_targets = [
            c for c in sorted(swap_targets) if config.component(c).kind is ComponentKind.MESSAGE_DRIVEN
        ]
        for name in md_targets:
            steps.append(PlanStep(PAUSE_QUEUE, component=name, queue=config.component(name).queue))
        for migration in sorted(request.entity_migration, key=lambda m: m.component):
            if migration.component in swap_targets:
                steps.append(
                    PlanStep(SYNC_SHADOW_STORE, component=migration.component, store=migration.shadow_store)
                )
        for name in reversed(order):  # providers first
            if name in swap_targets:
                steps.append(PlanStep(SWAP, component=name))
        for qos in sorted(request.qos_changes, key=lambda q: q.component):
            steps.append(PlanStep(SET_POOL_SIZE, component=qos.component, pool_size=qos.pool_size))
        for name in md_targets:
            steps.append(PlanStep(RESUME_QUEUE, component=name, queue=config.component(name).queue))
        for name in reversed(order):  # providers first
            steps.append(PlanStep(RELEASE_BARRIER, component=name))
    else:
        affected = frozenset()
        for qos in sorted(request.qos_changes, key=lambda q: q.component):
            steps.append(PlanStep(SET_POOL_SIZE, component=qos.component, pool_size=qos.pool_size))

    plan = ReconfigurationPlan(
        request=request,
        window=window,
        affected=affected,
        steps=tuple(steps),
        target=target,
        verdicts=tuple(verdicts),
    )
    problems = plan_ordering_problems(plan)
    if problems:
        raise EngineFault(f"generated plan violates ordering: {problems[0]}")
    return plan


def plan_ordering_problems(plan: ReconfigurationPlan) -> list[str]:
    """Violations of the plan's structural ordering invariants (empty = well-formed)."""
    problems: list[str] = []
    index: dict[tuple[str, Optional[str]], int] = {}
    for i, step in enumerate(plan.steps):
        index[(step.kind, step.component)] = i

    def at(kind: str, component: Optional[str]) -> Optional[int]:
        return index.get((kind, component))

    swapped = [s.component for s in plan.steps if s.kind == SWAP]
    for c in swapped:
        positions = [at(ACTIVATE_BARRIER, c), at(AWAIT_QUIESCENCE, c), at(SWAP, c), at(RELEASE_BARRIER, c)]
        if any(p is None for p in positions):
            problems.append(f"{c}: missing barrier step around swap")
        elif not (positions[0] < positions[1] < positions[2] < positions[3]):
            problems.append(f"{c}: barrier steps out of order")
    for step in plan.steps:
        if step.kind == PAUSE_QUEUE and step.component in swapped:
            if not (index[(PAUSE_QUEUE, step.component)] < index[(SWAP, step.component)]):
                problems.append(f"{step.component}: queue paused after swap")
            resume = at(RESUME_QUEUE, step.component)
            if resume is None or resume < index[(SWAP, step.component)]:
                problems.append(f"{step.component}: queue not resumed after swap")
        if step.kind == SYNC_SHADOW_STORE:
            swap_pos = at(SWAP, step.component)
            if swap_pos is not None and index[(SYNC_SHADOW_STORE, step.component)] > swap_pos:
                problems.append(f"{step.component}: store synced after swap")
    return problems


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class PlanExecutor:
    """Walks one plan's steps through the engine's event timeline; ``execute_plan`` runs it.

    ``_run`` rejects a plan whose target has composition findings before a
    barrier goes up, then walks the steps in order at barrier priority and
    yields only where the plan waits: for a timed step's cost and for a
    barrier that has not closed; ``_advance`` is its only wake-up.  One
    deadline guards the drain: if a barrier is still draining when it fires,
    every barrier is released and the plan is abandoned (``DrainTimeout``).
    Swaps are not undone.  A deadline that fires before the first swap leaves
    the configuration untouched; one that fires while a later swap waits for
    a re-opened drain leaves the earlier swaps applied, and because each swap
    installs ``plan.target`` as ``engine.config``, the configuration then also
    names the new descriptors of the swaps that never ran (ROADMAP item 3).
    """

    def __init__(self, engine: rt.Engine, plan: ReconfigurationPlan, costs: CostModel = CostModel()):
        self.engine = engine
        self.plan = plan
        self.costs = costs
        self.done = False
        self.outcome: Optional[str] = None
        self.findings: list[ConsistencyFinding] = []
        self.detail = ""
        self._barriers = tuple(s.component for s in plan.steps if s.kind == ACTIVATE_BARRIER)
        self._steps = self._run()

    def _advance(self) -> None:
        if not self.done:
            next(self._steps, None)

    def _run(self) -> Iterator[None]:
        engine, plan = self.engine, self.plan
        self.findings.extend(check_composition(plan.target).findings)
        if self.findings:
            self._finish("Rejected")
            return
        if self._barriers:
            # every barrier goes up at this instant, so one deadline covers them all; it holds
            # the executor weakly, so a finished plan's target is not kept alive until it fires
            executor = weakref.ref(self)
            engine.schedule(
                engine.clock + engine.drain_timeout, lambda: executor() and executor()._check_timeout()
            )
        for step in plan.steps:
            if step.kind == ACTIVATE_BARRIER:
                engine.activate_barrier(step.component)
            elif step.kind == AWAIT_QUIESCENCE:
                if not engine.on_quiescent(step.component, self._advance):
                    yield
            elif step.kind == PAUSE_QUEUE:
                engine.pause_queue(step.queue)
            elif step.kind == SYNC_SHADOW_STORE:
                engine.schedule(engine.clock + self.costs.sync, self._advance)
                yield
                migration = plan.request.migration_for(step.component)
                engine.sync_shadow_store(step.component, migration.shadow_store, migration.mapping())
            elif step.kind == SWAP:
                engine.schedule(engine.clock + self.costs.swap, self._advance)
                yield
                # a late joining transaction may have re-opened the drain; swap after it ends
                while not engine.on_quiescent(step.component, self._advance):
                    yield
                migration = plan.request.migration_for(step.component)
                engine.swap_component(
                    step.component, plan.target, shadow_store=migration.shadow_store if migration else None
                )
            elif step.kind == SET_POOL_SIZE:
                engine.set_pool_size(step.component, step.pool_size)
            elif step.kind == RESUME_QUEUE:
                engine.resume_queue(step.queue)
            elif step.kind == RELEASE_BARRIER:
                self._collect_orphans(step.component)
                engine.release_barrier(step.component)
            else:
                raise EngineFault(f"unknown plan step {step.kind!r}")
        self._finish("Rejected" if self.findings else "Completed")

    def _collect_orphans(self, component: str) -> None:
        descriptor = self.engine.config.component(component)
        for call_id, interface, operation in self.engine.held_calls(component):
            if not descriptor.provides_operation(interface, operation):
                self.findings.append(
                    ConsistencyFinding(
                        "orphaned-held-call",
                        component,
                        f"held invocation {call_id} targets removed operation {operation!r}",
                    )
                )

    def _check_timeout(self) -> None:
        if self.done:
            return
        draining = [c for c in self._barriers if self.engine.barrier_state(c) == rt.BARRIER_DRAINING]
        if not draining:
            return
        # abandon: release every barrier, in provider-first order (releasing an open one emits nothing)
        self.detail = f"drain timeout waiting for {draining[0]!r}"
        for name in reversed(self._barriers):
            self.engine.release_barrier(name)
        self._finish("DrainTimeout")

    def _finish(self, outcome: str) -> None:
        self.done = True
        self.outcome = outcome


def execute_plan(
    plan: ReconfigurationPlan, engine: rt.Engine, costs: CostModel = CostModel()
) -> ReconfigurationReport:
    """Run the plan from the engine's clock until it finishes, and report the outcome.

    The engine stops at the event that finishes the plan, so the report's
    downtime and held calls fold exactly the plan's own span: the events
    from its first step to that one.  Raises EngineFault if the engine runs
    out of events first.
    """
    from .metrics import compute_metrics

    executor = PlanExecutor(engine, plan, costs)
    first_event = len(engine.log)
    engine.schedule(engine.clock, executor._advance)
    engine.run(stop_when=lambda: executor.done)
    if not executor.done:
        raise EngineFault("plan did not finish: engine ran out of events")
    metrics = compute_metrics(engine.log.events[first_event:])
    return ReconfigurationReport(
        request_id=plan.request.id,
        outcome=executor.outcome,
        downtime=metrics.downtime,
        held_count=metrics.held_count,
        held_max_wait=metrics.held_max_wait,
        verdicts=plan.verdicts,
        findings=tuple(executor.findings),
        affected=plan.affected,
        detail=executor.detail,
    )


@dataclass(frozen=True)
class RedeploymentRun:
    """Outcome of running a scenario with a request redeployed mid-flight."""

    log: rt.EventLog
    engine: rt.Engine
    report: ReconfigurationReport


def run_scenario_with_request(
    config: ApplicationConfiguration,
    scenario,
    request: ReconfigurationRequest,
    until: int,
    blocking: str = "minimal",
    costs: CostModel = CostModel(),
    drain_timeout: int = 1000,
    mode: str = "weakened",
) -> RedeploymentRun:
    """Run the workload, redeploy the request at its instant, and run on to ``until``.

    The run stops at the request's slot: after the completions at
    ``requested_at`` and before that instant's new dispatches.  There it
    makes the calls ``DeploymentManager.redeploy`` makes: ``check_mode``,
    then ``build_plan`` from a snapshot, then ``execute_plan``, which runs
    the engine until the plan finishes (past ``until`` if it must), so the
    report folds the plan's own span.

    Raises ValidationError, before any engine is built, for a request
    instant outside ``0..until``, and Rejection for a refused request; a
    refusal comes before any barrier goes up.
    """
    at = request.requested_at
    if not 0 <= at <= until:
        raise ValidationError(f"request {request.id!r} at {at} is outside the run (0..{until})")
    engine = rt.Engine(config, seed=scenario.seed, drain_timeout=drain_timeout)
    engine.load_scenario(scenario)
    engine.run(until=at - 1)
    # a marker at ``at`` runs with that instant's barrier transitions: after its completions
    reached: list[bool] = []
    engine.schedule(at, lambda: reached.append(True))
    engine.run(stop_when=lambda: bool(reached))
    check_mode(request, engine.config, mode)
    plan = build_plan(request, engine.snapshot(), blocking=blocking, costs=costs)
    report = execute_plan(plan, engine, costs)
    engine.run(until=until)
    return RedeploymentRun(engine.log, engine, report)


# ---------------------------------------------------------------------------
# Request documents
# ---------------------------------------------------------------------------


_REQUEST_KEYS = frozenset({"id", "targets", "qos_changes", "entity_migration", "requested_at"})
_TARGET_KEYS = frozenset({"component", "descriptor", "descriptor_file"})
_TARGET_REQUIRED = frozenset({"component"})
_QOS_KEYS = frozenset({"component", "pool_size"})
_MIGRATION_KEYS = frozenset({"component", "shadow_store", "column_mapping"})
_MIGRATION_REQUIRED = frozenset({"component", "shadow_store"})
_REQUEST = "request document"
_TARGET = "target document"
_QOS = "qos document"
_MIGRATION = "migration document"


def parse_request(text: str, file_loader: Optional[Callable[[str], str]] = None) -> ReconfigurationRequest:
    """A request from its document; every field must have its JSON type (``typed``)."""
    doc = record(decode(text, "request"), _REQUEST_KEYS, _REQUEST)
    targets = []
    for tdoc in typed(doc, "targets", (list,), _REQUEST, default=[]):
        record(tdoc, _TARGET_KEYS, _TARGET, _TARGET_REQUIRED)
        component = typed(tdoc, "component", (str,), _TARGET, "component")
        descriptor_file = typed(tdoc, "descriptor_file", (str,), _TARGET, "component", default="")
        descriptor = None
        if tdoc.get("descriptor") is not None:
            descriptor = parse_component(tdoc["descriptor"])
        elif descriptor_file:
            if file_loader is None:
                raise ParseError("descriptor_file given but no file loader available")
            descriptor = parse_component(decode(file_loader(descriptor_file), "descriptor"))
        targets.append(TargetChange(component, descriptor))
    qos = []
    for qdoc in typed(doc, "qos_changes", (list,), _REQUEST, default=[]):
        record(qdoc, _QOS_KEYS, _QOS, _QOS_KEYS)
        qos.append(
            QosChange(
                typed(qdoc, "component", (str,), _QOS, "component"),
                typed(qdoc, "pool_size", (int,), _QOS, "component"),
            )
        )
    migrations = []
    for mdoc in typed(doc, "entity_migration", (list,), _REQUEST, default=[]):
        record(mdoc, _MIGRATION_KEYS, _MIGRATION, _MIGRATION_REQUIRED)
        component = typed(mdoc, "component", (str,), _MIGRATION, "component")
        shadow_store = typed(mdoc, "shadow_store", (str,), _MIGRATION, "component")
        mapping = typed(mdoc, "column_mapping", (dict,), _MIGRATION, "component", default={})
        if not all(type(column) is str for column in mapping.values()):
            raise ParseError(f"{_MIGRATION} {component!r}: 'column_mapping' must map each column to a string")
        migrations.append(EntityMigration(component, shadow_store, tuple(sorted(mapping.items()))))
    return ReconfigurationRequest(
        id=typed(doc, "id", (str,), _REQUEST, default="request"),
        targets=tuple(targets),
        qos_changes=tuple(qos),
        entity_migration=tuple(migrations),
        requested_at=typed(doc, "requested_at", (int,), _REQUEST, default=0),
    )
