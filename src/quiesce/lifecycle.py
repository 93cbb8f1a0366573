"""Deployment lifecycle surface over the simulated runtime.

Modules (bundles of component descriptors) are distributed, started,
stopped, undeployed, and redeployed.  ``stop`` drains behind the redeploy
barrier — live transactions complete, new work is held, then denied by the
stopped containers — while ``redeploy`` hands the per-component diffs to the
reconfiguration manager so running sessions survive.  The manager's
``check_mode`` applies the redeploy mode: strict refuses any structural diff
outright, the default weakened mode lets the component-type safety rules
decide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from json.decoder import WHITESPACE
from json.scanner import make_scanner
from typing import Optional

from .documents import decode, record, typed
from .engine import BARRIER_CLOSED, BARRIER_OPEN, Engine
from .errors import DrainTimeout, IllegalTransition, QuiesceError, Rejection, ValidationError
from .manager import (
    CostModel,
    ReconfigurationReport,
    ReconfigurationRequest,
    TargetChange,
    build_plan,
    check_mode,
    execute_plan,
)
from .model import (
    ComponentDescriptor,
    ContainerSpec,
    InterceptorKind,
    Wire,
    component_to_json,
    parse_component,
)


@dataclass(frozen=True)
class ModuleArchive:
    module: str
    version: int
    components: tuple[ComponentDescriptor, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.components]
        if len(names) != len(set(names)):
            raise ValidationError(f"module {self.module!r}: duplicate component names")


class ModuleState(str, Enum):
    DISTRIBUTED = "Distributed"
    STARTED = "Started"
    STOPPED = "Stopped"
    UNDEPLOYED = "Undeployed"


_TRANSITIONS: dict[ModuleState, frozenset[ModuleState]] = {
    ModuleState.DISTRIBUTED: frozenset({ModuleState.STARTED, ModuleState.UNDEPLOYED}),
    ModuleState.STARTED: frozenset({ModuleState.STOPPED}),
    ModuleState.STOPPED: frozenset({ModuleState.STARTED, ModuleState.UNDEPLOYED}),
    ModuleState.UNDEPLOYED: frozenset(),
}


@dataclass(frozen=True)
class ProgressEvent:
    operation: str  # Distribute | Start | Stop | Undeploy | Redeploy
    module: str
    status: str  # Running | Completed | Failed
    detail: str = ""


@dataclass
class _ModuleRecord:
    archive: ModuleArchive
    state: ModuleState


class DeploymentManager:
    """Module lifecycle over one engine; operations are serialized."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.modules: dict[str, _ModuleRecord] = {}
        self.events: list[ProgressEvent] = []
        # component name -> the (deployed, archive) descriptors a redeploy last found
        # equal; both are immutable, so the same two objects are equal again
        self._equal: dict[str, tuple[ComponentDescriptor, ComponentDescriptor]] = {}

    def _progress(self, operation: str, module: str, status: str, detail: str = "") -> None:
        self.events.append(ProgressEvent(operation, module, status, detail))

    def adopt_running(self, module: str, archive: ModuleArchive) -> None:
        """Register already-deployed components as a started module.

        Used when an engine was built straight from an application document
        and the lifecycle surface joins afterwards (the components are
        running; no containers are created).  A component another managed
        module holds is refused, unless that module is undeployed.
        """
        if module in self.modules and self.modules[module].state is not ModuleState.UNDEPLOYED:
            raise IllegalTransition(f"module {module!r} already managed")
        deployed = self.engine.config.components()
        missing = [c.name for c in archive.components if c.name not in deployed]
        if missing:
            raise ValidationError(f"cannot adopt {module!r}: components not deployed: {missing}")
        names = {c.name for c in archive.components}
        for other, held in self.modules.items():
            if held.state is not ModuleState.UNDEPLOYED:
                taken = sorted(names.intersection(c.name for c in held.archive.components))
                if taken:
                    raise ValidationError(f"cannot adopt {module!r}: module {other!r} holds {taken}")
        self.modules[module] = _ModuleRecord(archive, ModuleState.STARTED)

    def _begin_transition(self, operation: str, module: str, to: ModuleState) -> _ModuleRecord:
        """Report ``operation`` Running, then return the module's record if it may move to ``to``.

        Otherwise report it Failed with the reason and raise IllegalTransition.
        """
        self._progress(operation, module, "Running")
        record = self.modules.get(module)
        if record is None:
            reason = f"module {module!r} is not distributed"
        elif to not in _TRANSITIONS[record.state]:
            reason = f"module {module!r}: {record.state.value} -> {to.value}"
        else:
            return record
        self._progress(operation, module, "Failed", reason)
        raise IllegalTransition(reason)

    # ------------------------------------------------------------------

    def distribute(self, archive: ModuleArchive) -> ModuleState:
        """Create containers for the archive's components (not yet accepting calls).

        All or nothing: when a descriptor fails, the components this call
        already added are removed again before ``Failed`` is reported.
        """
        self._progress("Distribute", archive.module, "Running")
        existing = self.modules.get(archive.module)
        if existing is not None and existing.state is not ModuleState.UNDEPLOYED:
            self._progress("Distribute", archive.module, "Failed", "already distributed")
            raise IllegalTransition(f"module {archive.module!r} already distributed")
        added: list[str] = []
        try:
            providers = self._providers(archive)
            for descriptor in archive.components:
                descriptor.validate()
                wiring = _auto_wire(descriptor, providers)
                self.engine.add_component(descriptor, ContainerSpec(descriptor.name), wiring)
                added.append(descriptor.name)
        except ValidationError as exc:
            for name in reversed(added):
                self.engine.remove_component(name)
            self._progress("Distribute", archive.module, "Failed", str(exc))
            raise
        self.modules[archive.module] = _ModuleRecord(archive, ModuleState.DISTRIBUTED)
        self._progress("Distribute", archive.module, "Completed")
        return ModuleState.DISTRIBUTED

    def _providers(self, archive: ModuleArchive) -> dict[str, list[str]]:
        """Interface -> sorted names of the deployed or archived components that provide it.

        A deployed component shadows an archive entry of the same name.
        """
        candidates = self.engine.config.components()
        for candidate in archive.components:
            candidates.setdefault(candidate.name, candidate)
        providers: dict[str, list[str]] = {}
        for name in sorted(candidates):
            for interface in candidates[name].provided_names():
                providers.setdefault(interface, []).append(name)
        return providers

    def start(self, module: str) -> ModuleState:
        record = self._begin_transition("Start", module, ModuleState.STARTED)
        for descriptor in record.archive.components:
            self.engine.start_container(descriptor.name)
        record.state = ModuleState.STARTED
        self._progress("Start", module, "Completed")
        return ModuleState.STARTED

    def stop(self, module: str) -> ModuleState:
        """Drain the module behind barriers, then stop its containers.

        Each container must name CleanShutdown in its chain and have an open
        barrier, or the stop is refused before any barrier goes up.  Once every
        barrier has closed, the containers stop and the release replays the
        held calls, which they deny.  On a drain timeout the release replays
        them against the still-started module.
        """
        record = self._begin_transition("Stop", module, ModuleState.STOPPED)
        engine = self.engine
        names = [d.name for d in record.archive.components]
        specs = {spec.hosted_component: spec for spec in engine.config.containers}
        for name in names:
            barrier = engine.barrier_state(name)  # ScenarioError if no longer deployed
            if InterceptorKind.CLEAN_SHUTDOWN not in specs[name].interceptor_chain:
                reason = f"container {name!r} has no CleanShutdown interceptor"
            elif barrier != BARRIER_OPEN:
                reason = f"barrier on {name!r} is {barrier}"
            else:
                continue
            self._progress("Stop", module, "Failed", reason)
            raise IllegalTransition(f"module {module!r}: {reason}")
        for name in names:
            engine.activate_barrier(name)
        deadline = engine.clock + engine.drain_timeout

        def drained() -> bool:
            return all(engine.barrier_state(name) == BARRIER_CLOSED for name in names)

        engine.run(until=deadline, stop_when=drained)
        if not drained():
            for name in names:
                engine.release_barrier(name)
            self._progress("Stop", module, "Failed", "drain timeout")
            raise DrainTimeout(f"module {module!r} did not drain by {deadline}")
        for name in names:
            engine.stop_container(name)
            engine.release_barrier(name)
        record.state = ModuleState.STOPPED
        self._progress("Stop", module, "Completed")
        return ModuleState.STOPPED

    def undeploy(self, module: str) -> ModuleState:
        record = self._begin_transition("Undeploy", module, ModuleState.UNDEPLOYED)
        for descriptor in record.archive.components:
            self.engine.remove_component(descriptor.name)
        record.state = ModuleState.UNDEPLOYED
        self._progress("Undeploy", module, "Completed")
        return ModuleState.UNDEPLOYED

    def redeploy(
        self,
        module: str,
        new_archive: ModuleArchive,
        mode: str = "weakened",
        blocking: str = "minimal",
        costs: CostModel = CostModel(),
    ) -> ReconfigurationReport:
        """Swap the changed components of a running module transparently.

        Diffs are component-wise: components the new archive leaves
        untouched stay untouched.  ``mode`` is applied by the manager's
        ``check_mode``: strict refuses any structural diff, weakened defers
        to the component-type safety rules.
        """
        self._progress("Redeploy", module, "Running")
        record = self.modules.get(module)
        if record is None or record.state is not ModuleState.STARTED:
            self._progress("Redeploy", module, "Failed", "module not started")
            raise IllegalTransition(f"module {module!r} is not started")
        if new_archive.module != module:
            self._progress("Redeploy", module, "Failed", "module id mismatch")
            raise ValidationError(f"archive is for {new_archive.module!r}, not {module!r}")
        if new_archive.version <= record.archive.version:
            self._progress("Redeploy", module, "Failed", "version not increased")
            raise ValidationError(
                f"new archive version {new_archive.version} not above {record.archive.version}"
            )
        old_names = {c.name for c in record.archive.components}
        new_names = {c.name for c in new_archive.components}
        if old_names != new_names:
            self._progress("Redeploy", module, "Failed", "module structure changed")
            raise Rejection(
                f"module {module!r}: components added or removed; "
                "redeploy swaps existing components only"
            )
        config = self.engine.config
        targets = []
        for new_descriptor in new_archive.components:
            name = new_descriptor.name
            old_descriptor = config.component(name)
            equal = self._equal.get(name)
            if equal is not None and equal[0] is old_descriptor and equal[1] is new_descriptor:
                continue  # the pair found equal last time
            if old_descriptor == new_descriptor:
                self._equal[name] = (old_descriptor, new_descriptor)
                continue  # untouched component
            targets.append(TargetChange(name, new_descriptor))
        targets.sort(key=lambda target: target.component)
        if not targets:
            record.archive = new_archive
            self._progress("Redeploy", module, "Completed", "no component changed")
            return ReconfigurationReport(request_id=f"redeploy:{module}", outcome="Completed")
        request = ReconfigurationRequest(
            id=f"redeploy:{module}:{new_archive.version}",
            targets=tuple(targets),
            requested_at=self.engine.clock,
        )
        try:
            check_mode(request, self.engine.config, mode)
            plan = build_plan(request, self.engine.snapshot(), blocking=blocking, costs=costs)
        except QuiesceError as exc:
            self._progress("Redeploy", module, "Failed", str(exc))
            raise
        report = execute_plan(plan, self.engine, costs)
        if report.outcome == "Completed":
            record.archive = new_archive
            self._progress("Redeploy", module, "Completed")
        else:
            self._progress("Redeploy", module, "Failed", report.outcome)
        return report


def _auto_wire(descriptor: ComponentDescriptor, providers: dict[str, list[str]]) -> tuple[Wire, ...]:
    """Wire each requirement to the unique provider other than ``descriptor`` itself.

    No provider means the requirement is declared external; several
    providers are ambiguous and rejected.
    """
    wires = []
    for interface in descriptor.required:
        names = [name for name in providers.get(interface, ()) if name != descriptor.name]
        if len(names) > 1:
            raise ValidationError(
                f"{descriptor.name!r} requires {interface!r} with ambiguous providers {names}"
            )
        wires.append(Wire(descriptor.name, interface, names[0] if names else None))
    return tuple(wires)


_ARCHIVE_KEYS = frozenset({"module", "version", "components"})

_scan = make_scanner(json.JSONDecoder())  # the scanner json.loads decodes with
_ws = WHITESPACE.match

# Of the last archive that parsed whole: each ``components`` element's exact
# text and the descriptor parsed from it, in order.  A JSON object ends where
# its own characters close it, so text that opens with an element's text at
# the same index holds that very object, and the descriptor parsed from it
# stands: a rolling redeploy decodes only the components that changed.  An
# element inserted ahead of others shifts them, so they are decoded again.
_LAST_COMPONENTS: tuple[tuple[str, ComponentDescriptor], ...] = ()


def _walk_archive(text: str) -> Optional[tuple[dict, list[str]]]:
    """The top-level object of ``text`` and its ``components`` element texts, or None.

    Each element that repeats the text of the last archive's element at its
    index stands in the object as that element's descriptor; every other
    element is decoded.  None unless ``text`` is one JSON object with
    distinct keys: such text is left to ``decode`` and the record checks, so
    what they accept and the errors they raise stay theirs.
    """
    last = _LAST_COMPONENTS
    doc: dict = {}
    texts: list[str] = []
    try:
        i = _ws(text, 0).end()
        if text[i] != "{":
            return None
        i = _ws(text, i + 1).end()
        while text[i] != "}":
            if text[i] != '"':
                return None
            key, i = _scan(text, i)
            if key in doc:
                return None
            i = _ws(text, i).end()
            if text[i] != ":":
                return None
            i = _ws(text, i + 1).end()
            if key == "components" and text[i] == "[":
                items: list = []
                i = _ws(text, i + 1).end()
                while text[i] != "]":
                    k = len(items)
                    if k < len(last) and text.startswith(last[k][0], i):
                        texts.append(last[k][0])
                        items.append(last[k][1])
                        i += len(last[k][0])
                    else:
                        value, end = _scan(text, i)
                        texts.append(text[i:end])
                        items.append(value)
                        i = end
                    i = _ws(text, i).end()
                    if text[i] == ",":
                        i = _ws(text, i + 1).end()
                        if text[i] == "]":
                            return None
                    elif text[i] != "]":
                        return None
                doc[key] = items
                i += 1
            else:
                doc[key], i = _scan(text, i)
            i = _ws(text, i).end()
            if text[i] == ",":
                i = _ws(text, i + 1).end()
                if text[i] == "}":
                    return None
            elif text[i] != "}":
                return None
        if _ws(text, i + 1).end() != len(text):
            return None
    except (IndexError, StopIteration, ValueError, RecursionError):
        return None  # no JSON where the walk expected a value or a delimiter
    return doc, texts


def parse_archive(text: str) -> ModuleArchive:
    global _LAST_COMPONENTS
    what = "archive document"
    walked = _walk_archive(text) if type(text) is str else None
    doc = decode(text, "archive") if walked is None else walked[0]
    record(doc, _ARCHIVE_KEYS, what, frozenset({"module"}))
    module = typed(doc, "module", (str,), what)
    version = typed(doc, "version", (int,), what, default=1)
    components = tuple(
        c if isinstance(c, ComponentDescriptor) else parse_component(c)
        for c in typed(doc, "components", (list,), what, default=[])
    )
    archive = ModuleArchive(module, version, components)
    if walked is not None:
        _LAST_COMPONENTS = tuple(zip(walked[1], components))
    return archive


def archive_to_json(archive: ModuleArchive) -> dict:
    return {
        "module": archive.module,
        "version": archive.version,
        "components": [component_to_json(c) for c in archive.components],
    }
