"""Deployment lifecycle surface over the simulated runtime.

Modules (bundles of component descriptors) are distributed, started,
stopped, undeployed, and redeployed.  ``stop`` drains through the clean
shutdown interceptor — running invocations complete, new ones are denied —
while ``redeploy`` hands the per-component diffs to the reconfiguration
manager so running sessions survive.  The manager's ``check_mode`` applies
the redeploy mode: strict refuses any structural diff outright, the default
weakened mode lets the component-type safety rules decide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .engine import Engine
from .errors import (
    DrainTimeout,
    IllegalTransition,
    ParseError,
    Rejection,
    ValidationError,
)
from .manager import (
    CostModel,
    EntityMigration,
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

    def _progress(self, operation: str, module: str, status: str, detail: str = "") -> None:
        self.events.append(ProgressEvent(operation, module, status, detail))

    def state_of(self, module: str) -> ModuleState:
        record = self.modules.get(module)
        return record.state if record else ModuleState.UNDEPLOYED

    def adopt_running(self, module: str, archive: ModuleArchive) -> None:
        """Register already-deployed components as a started module.

        Used when an engine was built straight from an application document
        and the lifecycle surface joins afterwards (the components are
        running; no containers are created).
        """
        if module in self.modules and self.modules[module].state is not ModuleState.UNDEPLOYED:
            raise IllegalTransition(f"module {module!r} already managed")
        deployed = self.engine.config.components()
        missing = [c.name for c in archive.components if c.name not in deployed]
        if missing:
            raise ValidationError(f"cannot adopt {module!r}: components not deployed: {missing}")
        self.modules[module] = _ModuleRecord(archive, ModuleState.STARTED)

    def _require_transition(self, module: str, to: ModuleState) -> _ModuleRecord:
        record = self.modules.get(module)
        if record is None:
            raise IllegalTransition(f"module {module!r} is not distributed")
        if to not in _TRANSITIONS[record.state]:
            raise IllegalTransition(f"module {module!r}: {record.state.value} -> {to.value}")
        return record

    # ------------------------------------------------------------------

    def distribute(self, archive: ModuleArchive) -> ModuleState:
        """Create containers for the archive's components (not yet accepting calls)."""
        self._progress("Distribute", archive.module, "Running")
        existing = self.modules.get(archive.module)
        if existing is not None and existing.state is not ModuleState.UNDEPLOYED:
            self._progress("Distribute", archive.module, "Failed", "already distributed")
            raise IllegalTransition(f"module {archive.module!r} already distributed")
        try:
            for descriptor in archive.components:
                descriptor.validate()
                wiring = self._auto_wire(descriptor, archive)
                self.engine.add_component(descriptor, ContainerSpec(descriptor.name), wiring)
        except ValidationError as exc:
            self._progress("Distribute", archive.module, "Failed", str(exc))
            raise
        self.modules[archive.module] = _ModuleRecord(archive, ModuleState.DISTRIBUTED)
        self._progress("Distribute", archive.module, "Completed")
        return ModuleState.DISTRIBUTED

    def _auto_wire(self, descriptor: ComponentDescriptor, archive: ModuleArchive) -> tuple[Wire, ...]:
        """Wire each requirement to the unique provider in the module or the running system.

        No provider means the requirement is declared external; several
        providers are ambiguous and rejected.
        """
        deployed = dict(self.engine.config.components())
        for candidate in archive.components:
            deployed.setdefault(candidate.name, candidate)
        wires = []
        for interface in descriptor.required:
            providers = sorted(
                name
                for name, other in deployed.items()
                if name != descriptor.name and interface in other.provided_names()
            )
            if len(providers) > 1:
                raise ValidationError(
                    f"{descriptor.name!r} requires {interface!r} with ambiguous providers {providers}"
                )
            wires.append(Wire(descriptor.name, interface, providers[0] if providers else None))
        return tuple(wires)

    def start(self, module: str) -> ModuleState:
        self._progress("Start", module, "Running")
        try:
            record = self._require_transition(module, ModuleState.STARTED)
        except IllegalTransition as exc:
            self._progress("Start", module, "Failed", str(exc))
            raise
        for descriptor in record.archive.components:
            self.engine.start_container(descriptor.name)
        record.state = ModuleState.STARTED
        self._progress("Start", module, "Completed")
        return ModuleState.STARTED

    def stop(self, module: str) -> ModuleState:
        """Drain running invocations, deny new ones, then mark the module stopped."""
        self._progress("Stop", module, "Running")
        try:
            record = self._require_transition(module, ModuleState.STOPPED)
        except IllegalTransition as exc:
            self._progress("Stop", module, "Failed", str(exc))
            raise
        names = [d.name for d in record.archive.components]
        for name in names:
            self.engine.begin_clean_shutdown(name)
        deadline = self.engine.clock + self.engine.drain_timeout

        def drained() -> bool:
            return all(self.engine.is_drained(name) for name in names)

        self.engine.run(until=deadline, stop_when=drained)
        if not drained():
            for name in names:
                self.engine.end_clean_shutdown(name)
            self._progress("Stop", module, "Failed", "drain timeout")
            raise DrainTimeout(f"module {module!r} did not drain by {deadline}")
        for name in names:
            self.engine.stop_container(name)
        record.state = ModuleState.STOPPED
        self._progress("Stop", module, "Completed")
        return ModuleState.STOPPED

    def undeploy(self, module: str) -> ModuleState:
        self._progress("Undeploy", module, "Running")
        try:
            record = self._require_transition(module, ModuleState.UNDEPLOYED)
        except IllegalTransition as exc:
            self._progress("Undeploy", module, "Failed", str(exc))
            raise
        for descriptor in record.archive.components:
            self.engine.remove_component(descriptor.name)
        record.state = ModuleState.UNDEPLOYED
        self._progress("Undeploy", module, "Completed")
        return ModuleState.UNDEPLOYED

    def redeploy(
        self,
        module: str,
        new_archive: ModuleArchive,
        migration: tuple[EntityMigration, ...] = (),
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
        deployed = self.engine.config.components()
        targets = []
        for new_descriptor in sorted(new_archive.components, key=lambda c: c.name):
            old_descriptor = deployed[new_descriptor.name]
            if old_descriptor == new_descriptor:
                continue  # untouched component
            if component_to_json(old_descriptor) == component_to_json(new_descriptor):
                continue  # untouched up to the order of its access pairs
            targets.append(TargetChange(new_descriptor.name, new_descriptor))
        if not targets:
            record.archive = new_archive
            self._progress("Redeploy", module, "Completed", "no component changed")
            return ReconfigurationReport(request_id=f"redeploy:{module}", outcome="Completed")
        request = ReconfigurationRequest(
            id=f"redeploy:{module}:{new_archive.version}",
            targets=tuple(targets),
            entity_migration=tuple(migration),
            requested_at=self.engine.clock,
        )
        try:
            check_mode(request, self.engine.config, mode)
            plan = build_plan(
                request, self.engine.config, self.engine.snapshot(), blocking=blocking, costs=costs
            )
        except (Rejection, ValidationError) as exc:
            self._progress("Redeploy", module, "Failed", str(exc))
            raise
        report = execute_plan(plan, self.engine, costs)
        if report.outcome == "Completed":
            record.archive = new_archive
            self._progress("Redeploy", module, "Completed")
        else:
            self._progress("Redeploy", module, "Failed", report.outcome)
        return report


def parse_archive(text: str) -> ModuleArchive:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid archive JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("archive document must be a JSON object")
    unknown = set(doc) - {"module", "version", "components"}
    if unknown:
        raise ParseError(f"unknown keys in archive document: {sorted(unknown)}")
    if "module" not in doc:
        raise ParseError("archive document missing 'module'")
    return ModuleArchive(
        module=doc["module"],
        version=int(doc.get("version", 1)),
        components=tuple(parse_component(c) for c in doc.get("components", [])),
    )


def archive_to_json(archive: ModuleArchive) -> dict:
    return {
        "module": archive.module,
        "version": archive.version,
        "components": [component_to_json(c) for c in archive.components],
    }
