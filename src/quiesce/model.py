"""Static application model: components, composites, containers, change kinds.

Everything here is an immutable value.  The description document is a single
strict JSON object; ``load_application`` parses and validates it, and every
other operation in the package works off the resulting
``ApplicationConfiguration``.  Configurations and component descriptors index
themselves lazily, once per instance, and a configuration keeps its
composition report the same way; every change makes a new instance, so an
index or a report never goes stale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Optional, Union

from .automata import (
    ServiceEffectAutomaton,
    automaton_from_json,
    automaton_to_json,
)
from .errors import NameMismatch, ParseError, ValidationError, VersionError


class ComponentKind(str, Enum):
    STATEFUL_SESSION = "StatefulSession"
    STATELESS_SESSION = "StatelessSession"
    ENTITY = "Entity"
    MESSAGE_DRIVEN = "MessageDriven"


class TxAttribute(str, Enum):
    STARTS_NEW = "StartsNew"
    JOINS = "Joins"
    NONE = "None"


class Access(str, Enum):
    LOCAL = "Local"
    REMOTE = "Remote"


class ChangeKind(str, Enum):
    """Reconfiguration effort classes, ordered Functional < NonFunctional < Structural."""

    FUNCTIONAL = "Functional"
    NON_FUNCTIONAL = "NonFunctional"
    STRUCTURAL = "Structural"

    @property
    def rank(self) -> int:
        return {"Functional": 0, "NonFunctional": 1, "Structural": 2}[self.value]


class InterceptorKind(str, Enum):
    LOGGING = "Logging"
    HOME_TRACKING = "HomeTracking"
    AUTHENTICATION = "Authentication"
    AUTHORIZATION = "Authorization"
    PERSISTENCE = "Persistence"
    REMOTE_COMMUNICATION = "RemoteCommunication"
    CLEAN_SHUTDOWN = "CleanShutdown"
    REDEPLOY_BARRIER = "RedeployBarrier"
    TX_DEMARCATION = "TxDemarcation"
    POOLING = "Pooling"


DEFAULT_INTERCEPTOR_CHAIN = (
    InterceptorKind.LOGGING,
    InterceptorKind.HOME_TRACKING,
    InterceptorKind.CLEAN_SHUTDOWN,
    InterceptorKind.REDEPLOY_BARRIER,
    InterceptorKind.TX_DEMARCATION,
    InterceptorKind.POOLING,
)


@dataclass(frozen=True)
class Operation:
    """One operation of an interface signature: name, parameter types, return type."""

    name: str
    params: tuple[str, ...]
    returns: str


@dataclass(frozen=True)
class InterfaceSignature:
    """A named interface; equality is structural and order-sensitive."""

    name: str
    operations: tuple[Operation, ...]

    def __post_init__(self) -> None:
        names = [op.name for op in self.operations]
        if len(names) != len(set(names)):
            raise ValidationError(f"duplicate operation names in interface {self.name!r}")

    def operation_names(self) -> frozenset[str]:
        return frozenset(op.name for op in self.operations)


@dataclass(frozen=True)
class OperationSpec:
    """Behavioural description of a provided operation.

    ``effect_automaton`` may be None for operations with no protocol
    information; the dependency analysis then falls back to static edges.
    """

    name: str
    tx_attribute: TxAttribute
    duration: int
    effect_automaton: Optional[ServiceEffectAutomaton] = None

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ValidationError(f"operation {self.name!r}: duration must be >= 1")


@dataclass(frozen=True)
class ComponentDescriptor:
    """A versioned component of one of the four container-managed kinds."""

    name: str
    version: int
    kind: ComponentKind
    provided: tuple[InterfaceSignature, ...]
    required: tuple[str, ...]
    operations: tuple[OperationSpec, ...]
    state_fields: tuple[str, ...] = ()
    entity_schema: tuple[str, ...] = ()
    access: tuple[tuple[str, Access], ...] = ()
    data_store: Optional[str] = None
    queue: Optional[str] = None

    def access_of(self, interface: str) -> Access:
        for name, acc in self.access:
            if name == interface:
                return acc
        return Access.LOCAL

    def provided_names(self) -> frozenset[str]:
        return self._provided_names

    @cached_property
    def _provided_names(self) -> frozenset[str]:
        return frozenset(sig.name for sig in self.provided)

    @cached_property
    def _specs_by_name(self) -> dict[str, OperationSpec]:
        specs: dict[str, OperationSpec] = {}
        for op in self.operations:
            specs.setdefault(op.name, op)
        return specs

    @cached_property
    def _provided_operations(self) -> frozenset[tuple[str, str]]:
        return frozenset((sig.name, op.name) for sig in self.provided for op in sig.operations)

    def operation_spec(self, name: str) -> Optional[OperationSpec]:
        return self._specs_by_name.get(name)

    def provides_operation(self, interface: str, operation: str) -> bool:
        return (interface, operation) in self._provided_operations

    def validate(self) -> None:
        if self.version < 0:
            raise ValidationError(f"component {self.name!r}: version must be non-negative")
        if self.kind is ComponentKind.STATELESS_SESSION and self.state_fields:
            raise ValidationError(
                f"component {self.name!r}: stateless session components carry no conversational state"
            )
        if self.kind is ComponentKind.ENTITY and not self.entity_schema:
            raise ValidationError(f"component {self.name!r}: entity components need a non-empty schema")
        if self.kind is ComponentKind.MESSAGE_DRIVEN and len(self.provided) != 1:
            raise ValidationError(
                f"component {self.name!r}: message-driven components provide exactly one receiver interface"
            )
        if self.kind is not ComponentKind.STATEFUL_SESSION and self.state_fields:
            raise ValidationError(f"component {self.name!r}: only stateful sessions declare state fields")
        if self.kind is not ComponentKind.ENTITY and self.entity_schema:
            raise ValidationError(f"component {self.name!r}: only entity components declare a schema")
        required = set(self.required)
        for op in self.operations:
            if op.effect_automaton is None:
                continue
            for label in op.effect_automaton.alphabet():
                if label.interface not in required:
                    raise ValidationError(
                        f"component {self.name!r}: operation {op.name!r} calls interface "
                        f"{label.interface!r} which is not declared required"
                    )


@dataclass(frozen=True)
class Wire:
    """An internal uses-dependency.  ``provider`` None declares the requirement external."""

    requirer: str
    interface: str
    provider: Optional[str]


@dataclass(frozen=True)
class CompositeComponent:
    """Hierarchical grouping of components; wiring lives on the owning composite."""

    name: str
    children: tuple[Union[ComponentDescriptor, "CompositeComponent"], ...]
    internal_wiring: tuple[Wire, ...] = ()

    def leaves(self) -> tuple[ComponentDescriptor, ...]:
        out: list[ComponentDescriptor] = []
        for child in self.children:
            if isinstance(child, CompositeComponent):
                out.extend(child.leaves())
            else:
                out.append(child)
        return tuple(out)

    def all_wiring(self) -> tuple[Wire, ...]:
        out = list(self.internal_wiring)
        for child in self.children:
            if isinstance(child, CompositeComponent):
                out.extend(child.all_wiring())
        return tuple(out)


@dataclass(frozen=True)
class ContainerSpec:
    hosted_component: str
    interceptor_chain: tuple[InterceptorKind, ...] = DEFAULT_INTERCEPTOR_CHAIN
    pool_size: int = 4

    def validate(self) -> None:
        if self.pool_size < 1:
            raise ValidationError(f"container for {self.hosted_component!r}: pool_size must be >= 1")
        chain = list(self.interceptor_chain)

        def index_of(kind: InterceptorKind) -> Optional[int]:
            return chain.index(kind) if kind in chain else None

        tx = index_of(InterceptorKind.TX_DEMARCATION)
        pool = index_of(InterceptorKind.POOLING)
        if tx is None or pool is None:
            raise ValidationError(
                f"container for {self.hosted_component!r}: chain needs TxDemarcation and Pooling"
            )
        if tx > pool:
            raise ValidationError(
                f"container for {self.hosted_component!r}: TxDemarcation must precede Pooling"
            )
        for kind in (InterceptorKind.CLEAN_SHUTDOWN, InterceptorKind.REDEPLOY_BARRIER):
            idx = index_of(kind)
            if idx is not None and idx > tx:
                raise ValidationError(
                    f"container for {self.hosted_component!r}: {kind.value} must precede TxDemarcation"
                )


@dataclass(frozen=True)
class ConsistencyFinding:
    kind: str
    subject: str
    detail: str


@dataclass(frozen=True)
class ConsistencyReport:
    findings: tuple[ConsistencyFinding, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.findings)

    @property
    def consistent(self) -> bool:
        return not self.findings


@dataclass(frozen=True)
class ApplicationConfiguration:
    """The deployed application: structure, containers, stores, queues."""

    root: CompositeComponent
    containers: tuple[ContainerSpec, ...]
    data_stores: tuple[tuple[str, tuple[str, ...]], ...]
    queues: tuple[str, ...]
    version: int

    # The index and the composition report: built on first use and kept in
    # the instance ``__dict__``, outside the compared and hashed fields.

    @cached_property
    def _leaves(self) -> dict[str, ComponentDescriptor]:
        return {c.name: c for c in self.root.leaves()}

    @cached_property
    def _wires(self) -> tuple[Wire, ...]:
        return self.root.all_wiring()

    @cached_property
    def _wires_by_requirement(self) -> dict[tuple[str, str], list[Wire]]:
        """(requirer, interface) -> its wires in wiring order; more than one only when invalid."""
        out: dict[tuple[str, str], list[Wire]] = {}
        for wire in self._wires:
            out.setdefault((wire.requirer, wire.interface), []).append(wire)
        return out

    @cached_property
    def _composition(self) -> ConsistencyReport:
        return _check_composition(self)

    def components(self) -> dict[str, ComponentDescriptor]:
        return dict(self._leaves)

    def wiring(self) -> tuple[Wire, ...]:
        return self._wires

    def store_names(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.data_stores)

    def provider_of(self, requirer: str, interface: str) -> Optional[str]:
        """Internal provider wired to (requirer, interface), or None if external/unwired."""
        wires = self._wires_by_requirement.get((requirer, interface))
        return wires[0].provider if wires else None

    def is_declared_external(self, requirer: str, interface: str) -> bool:
        wires = self._wires_by_requirement.get((requirer, interface), ())
        return any(wire.provider is None for wire in wires)

    def with_component(self, descriptor: ComponentDescriptor) -> "ApplicationConfiguration":
        """Copy of this configuration with one leaf descriptor replaced and version bumped."""

        def swap_in(node: CompositeComponent) -> CompositeComponent:
            children: list[Union[ComponentDescriptor, CompositeComponent]] = []
            for child in node.children:
                if isinstance(child, CompositeComponent):
                    children.append(swap_in(child))
                elif child.name == descriptor.name:
                    children.append(descriptor)
                else:
                    children.append(child)
            return replace(node, children=tuple(children))

        return replace(self, root=swap_in(self.root), version=self.version + 1)


# ---------------------------------------------------------------------------
# Document parsing
# ---------------------------------------------------------------------------

_TOP_KEYS = {"components", "composites", "wiring", "containers", "data_stores", "queues", "version"}
_COMPONENT_KEYS = {
    "name",
    "version",
    "kind",
    "provided",
    "required",
    "operations",
    "state_fields",
    "entity_schema",
    "access",
    "data_store",
    "queue",
}


def _strict(doc: Mapping, allowed: set[str], what: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ParseError(f"unknown keys in {what}: {sorted(unknown)}")


def _parse_interface(doc: Mapping) -> InterfaceSignature:
    _strict(doc, {"name", "operations"}, f"interface {doc.get('name')!r}")
    ops = []
    for op in doc.get("operations", []):
        _strict(op, {"name", "params", "returns"}, f"interface operation {op.get('name')!r}")
        ops.append(Operation(op["name"], tuple(op.get("params", [])), op.get("returns", "void")))
    return InterfaceSignature(doc["name"], tuple(ops))


def parse_component(doc: Mapping) -> ComponentDescriptor:
    _strict(doc, _COMPONENT_KEYS, f"component {doc.get('name')!r}")
    try:
        kind = ComponentKind(doc["kind"])
    except ValueError:
        raise ParseError(f"component {doc.get('name')!r}: unknown kind {doc.get('kind')!r}")
    except KeyError:
        raise ParseError(f"component {doc.get('name')!r}: missing kind")
    operations = []
    for op in doc.get("operations", []):
        _strict(
            op,
            {"name", "tx_attribute", "duration", "effect_automaton"},
            f"operation {op.get('name')!r}",
        )
        try:
            attr = TxAttribute(op.get("tx_attribute", "None"))
        except ValueError:
            raise ParseError(f"operation {op.get('name')!r}: bad tx_attribute {op.get('tx_attribute')!r}")
        automaton = None
        if op.get("effect_automaton") is not None:
            automaton = automaton_from_json(op["effect_automaton"])
        operations.append(OperationSpec(op["name"], attr, int(op.get("duration", 1)), automaton))
    access = []
    for iface, acc in sorted(doc.get("access", {}).items()):
        try:
            access.append((iface, Access(acc)))
        except ValueError:
            raise ParseError(f"component {doc.get('name')!r}: bad access value {acc!r}")
    return ComponentDescriptor(
        name=doc["name"],
        version=int(doc.get("version", 1)),
        kind=kind,
        provided=tuple(_parse_interface(i) for i in doc.get("provided", [])),
        required=tuple(doc.get("required", [])),
        operations=tuple(operations),
        state_fields=tuple(doc.get("state_fields", [])),
        entity_schema=tuple(doc.get("entity_schema", [])),
        access=tuple(access),
        data_store=doc.get("data_store"),
        queue=doc.get("queue"),
    )


def component_to_json(c: ComponentDescriptor) -> dict:
    doc: dict = {
        "name": c.name,
        "version": c.version,
        "kind": c.kind.value,
        "provided": [
            {
                "name": sig.name,
                "operations": [
                    {"name": op.name, "params": list(op.params), "returns": op.returns}
                    for op in sig.operations
                ],
            }
            for sig in c.provided
        ],
        "required": list(c.required),
        "operations": [
            {
                "name": op.name,
                "tx_attribute": op.tx_attribute.value,
                "duration": op.duration,
                "effect_automaton": automaton_to_json(op.effect_automaton)
                if op.effect_automaton
                else None,
            }
            for op in c.operations
        ],
        "state_fields": list(c.state_fields),
        "entity_schema": list(c.entity_schema),
        "access": {iface: acc.value for iface, acc in c.access},
    }
    if c.data_store is not None:
        doc["data_store"] = c.data_store
    if c.queue is not None:
        doc["queue"] = c.queue
    return doc


def _parse_wire(doc: Mapping) -> Wire:
    _strict(doc, {"requirer", "interface", "provider"}, "wire")
    return Wire(doc["requirer"], doc["interface"], doc.get("provider"))


def load_application(document: str) -> ApplicationConfiguration:
    """Parse and validate an application description document.

    Raises ParseError for malformed input (including unknown keys — the
    format is strict) and ValidationError naming the first violated
    invariant.  A configuration returned from here always has an empty
    consistency report.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("application document must be a JSON object")
    _strict(doc, _TOP_KEYS, "application document")
    if "components" not in doc:
        raise ParseError("application document missing 'components'")

    components = [parse_component(c) for c in doc["components"]]
    by_name: dict[str, ComponentDescriptor] = {}
    for c in components:
        if c.name in by_name:
            raise ValidationError(f"duplicate component name {c.name!r}")
        by_name[c.name] = c

    composite_docs = doc.get("composites", [])
    claimed: dict[str, str] = {}
    comp_children: dict[str, list[str]] = {}
    comp_wiring: dict[str, list[Wire]] = {}
    for cd in composite_docs:
        _strict(cd, {"name", "children", "internal_wiring"}, f"composite {cd.get('name')!r}")
        name = cd["name"]
        if name in comp_children or name in by_name:
            raise ValidationError(f"duplicate composite name {name!r}")
        comp_children[name] = list(cd.get("children", []))
        comp_wiring[name] = [_parse_wire(w) for w in cd.get("internal_wiring", [])]
        for child in comp_children[name]:
            if child in claimed:
                raise ValidationError(f"{child!r} is a child of two composites")
            claimed[child] = name

    def build_composite(name: str, building: tuple[str, ...]) -> CompositeComponent:
        if name in building:
            raise ValidationError(f"composite cycle through {name!r}")
        children: list[Union[ComponentDescriptor, CompositeComponent]] = []
        for child in comp_children[name]:
            if child in by_name:
                children.append(by_name[child])
            elif child in comp_children:
                children.append(build_composite(child, building + (name,)))
            else:
                raise ValidationError(f"composite {name!r} references unknown child {child!r}")
        return CompositeComponent(name, tuple(children), tuple(comp_wiring[name]))

    root_children: list[Union[ComponentDescriptor, CompositeComponent]] = []
    for c in components:
        if c.name not in claimed:
            root_children.append(c)
    for name in comp_children:
        if name not in claimed:
            root_children.append(build_composite(name, ()))
    root = CompositeComponent(
        "root",
        tuple(root_children),
        tuple(_parse_wire(w) for w in doc.get("wiring", [])),
    )

    containers = []
    for cd in doc.get("containers", []):
        _strict(cd, {"hosted_component", "interceptor_chain", "pool_size"}, "container")
        chain = DEFAULT_INTERCEPTOR_CHAIN
        if "interceptor_chain" in cd:
            try:
                chain = tuple(InterceptorKind(k) for k in cd["interceptor_chain"])
            except ValueError:
                raise ParseError(f"container {cd.get('hosted_component')!r}: unknown interceptor kind")
        containers.append(
            ContainerSpec(cd["hosted_component"], chain, int(cd.get("pool_size", 4)))
        )

    stores = []
    for sd in doc.get("data_stores", []):
        _strict(sd, {"name", "schema"}, f"data store {sd.get('name')!r}")
        stores.append((sd["name"], tuple(sd.get("schema", []))))

    config = ApplicationConfiguration(
        root=root,
        containers=tuple(containers),
        data_stores=tuple(stores),
        queues=tuple(doc.get("queues", [])),
        version=int(doc.get("version", 1)),
    )
    validate_configuration(config)
    return config


def validate_configuration(config: ApplicationConfiguration) -> None:
    """Check every model invariant; raise ValidationError naming the first violation."""
    components = config.components()
    for c in components.values():
        c.validate()
    for spec in config.containers:
        spec.validate()
        if spec.hosted_component not in components:
            raise ValidationError(f"container hosts unknown component {spec.hosted_component!r}")
    hosted = [spec.hosted_component for spec in config.containers]
    if len(hosted) != len(set(hosted)):
        raise ValidationError("a component is hosted by more than one container")
    for name in components:
        if name not in hosted:
            raise ValidationError(f"component {name!r} has no container")

    wires = config.wiring()
    for wire in wires:
        if wire.requirer not in components:
            raise ValidationError(f"wire requirer {wire.requirer!r} is not a deployed component")
        requirer = components[wire.requirer]
        if wire.interface not in requirer.required:
            raise ValidationError(
                f"wire on {wire.requirer!r}: interface {wire.interface!r} is not declared required"
            )
        if wire.provider is None:
            continue
        if wire.provider not in components:
            raise ValidationError(f"wire provider {wire.provider!r} is not a deployed component")
        provider = components[wire.provider]
        if wire.interface not in provider.provided_names():
            raise ValidationError(
                f"wire {wire.requirer!r}->{wire.provider!r}: provider does not provide "
                f"{wire.interface!r}"
            )

    by_requirement = config._wires_by_requirement
    for c in components.values():
        for interface in c.required:
            matching = by_requirement.get((c.name, interface), ())
            if not matching:
                raise ValidationError(
                    f"unwired requirement: component {c.name!r} requires {interface!r}"
                )
            if len(matching) > 1:
                raise ValidationError(
                    f"requirement {c.name!r}/{interface!r} wired to more than one provider"
                )
        # calls promised by automata must be servable by the wired provider
        for op in c.operations:
            if op.effect_automaton is None:
                continue
            for label in op.effect_automaton.labels:
                provider_name = config.provider_of(c.name, label.interface)
                if provider_name is None:
                    continue  # declared external
                provider = components[provider_name]
                if not provider.provides_operation(label.interface, label.operation):
                    raise ValidationError(
                        f"component {c.name!r} calls {label.interface}.{label.operation} "
                        f"but provider {provider_name!r} does not offer it"
                    )

    store_names = config.store_names()
    for c in components.values():
        if c.kind is ComponentKind.ENTITY:
            if c.data_store is None:
                raise ValidationError(f"entity component {c.name!r} references no data store")
            if c.data_store not in store_names:
                raise ValidationError(
                    f"entity component {c.name!r} references unknown data store {c.data_store!r}"
                )
        if c.kind is ComponentKind.MESSAGE_DRIVEN:
            if c.queue is None:
                raise ValidationError(f"message-driven component {c.name!r} references no queue")
            if c.queue not in config.queues:
                raise ValidationError(
                    f"message-driven component {c.name!r} references unknown queue {c.queue!r}"
                )


def check_composition(config: ApplicationConfiguration) -> ConsistencyReport:
    """Report every composition inconsistency; empty report iff consistent.

    Unlike ``validate_configuration`` this never raises: it is meant for
    configurations that may have drifted (for example after a structural
    swap), where findings are data for the caller to act on.  The report is
    kept on the configuration, so a post-check and the next static graph share it.
    """
    return config._composition


def _check_composition(config: ApplicationConfiguration) -> ConsistencyReport:
    findings: list[ConsistencyFinding] = []
    components = config.components()
    wires = config.wiring()

    by_requirement = config._wires_by_requirement
    for c in sorted(components.values(), key=lambda c: c.name):
        for interface in c.required:
            if (c.name, interface) not in by_requirement:
                findings.append(
                    ConsistencyFinding(
                        "unwired-requirement", c.name, f"requires {interface!r} with no wire"
                    )
                )

    for wire in wires:
        if wire.provider is None:
            continue
        provider = components.get(wire.provider)
        if provider is None:
            findings.append(
                ConsistencyFinding(
                    "signature-mismatch", wire.requirer, f"provider {wire.provider!r} missing"
                )
            )
            continue
        if wire.interface not in provider.provided_names():
            findings.append(
                ConsistencyFinding(
                    "signature-mismatch",
                    wire.requirer,
                    f"provider {wire.provider!r} no longer provides {wire.interface!r}",
                )
            )
            continue
        requirer = components.get(wire.requirer)
        if requirer is None:
            continue
        for op in requirer.operations:
            if op.effect_automaton is None:
                continue
            for label in op.effect_automaton.labels:
                if label.interface != wire.interface:
                    continue
                if not provider.provides_operation(label.interface, label.operation):
                    findings.append(
                        ConsistencyFinding(
                            "signature-mismatch",
                            wire.requirer,
                            f"calls {label.interface}.{label.operation} which provider "
                            f"{wire.provider!r} does not offer",
                        )
                    )

    store_names = config.store_names()
    for c in sorted(components.values(), key=lambda c: c.name):
        if c.kind is ComponentKind.ENTITY and c.data_store not in store_names:
            findings.append(
                ConsistencyFinding("dangling-store", c.name, f"data store {c.data_store!r} missing")
            )
        if c.kind is ComponentKind.MESSAGE_DRIVEN and c.queue not in config.queues:
            findings.append(
                ConsistencyFinding("dangling-queue", c.name, f"queue {c.queue!r} missing")
            )
    return ConsistencyReport(tuple(findings))


def diff_versions(
    old: ComponentDescriptor, new: ComponentDescriptor, qos_change: bool = False
) -> ChangeKind:
    """Classify the change between two versions of one component.

    Structural changes dominate: any difference in provided signatures,
    state shape, entity schema, kind, required interfaces, or access
    classification is Structural.  Identical descriptors accompanied only
    by a container QoS request (pool size) are NonFunctional.  Everything
    else — implementation, automata, durations — is Functional.
    """
    if old.name != new.name:
        raise NameMismatch(f"cannot diff {old.name!r} against {new.name!r}")
    if new.version <= old.version:
        raise VersionError(
            f"{new.name!r}: new version {new.version} not greater than {old.version}"
        )
    if (
        old.provided != new.provided
        or old.state_fields != new.state_fields
        or old.entity_schema != new.entity_schema
        or old.kind != new.kind
        or old.required != new.required
        or old.access != new.access
    ):
        return ChangeKind.STRUCTURAL
    same_behaviour = (
        old.operations == new.operations
        and old.data_store == new.data_store
        and old.queue == new.queue
    )
    if same_behaviour and qos_change:
        return ChangeKind.NON_FUNCTIONAL
    return ChangeKind.FUNCTIONAL


def dominant_change(kinds: Iterable[ChangeKind]) -> ChangeKind:
    """The strongest kind present (Structural > NonFunctional > Functional)."""
    best = ChangeKind.FUNCTIONAL
    for kind in kinds:
        if kind.rank > best.rank:
            best = kind
    return best


def flatten_composite(
    root: CompositeComponent,
) -> tuple[dict[str, ComponentDescriptor], dict]:
    """Decompose a composite into leaves plus a recoverable hierarchy record."""
    leaves = {c.name: c for c in root.leaves()}

    def record(node: CompositeComponent) -> dict:
        return {
            "name": node.name,
            "wiring": [(w.requirer, w.interface, w.provider) for w in node.internal_wiring],
            "children": [
                record(child) if isinstance(child, CompositeComponent) else child.name
                for child in node.children
            ],
        }

    return leaves, record(root)


def renest_composite(
    leaves: Mapping[str, ComponentDescriptor], hierarchy: dict
) -> CompositeComponent:
    """Inverse of flatten_composite."""
    children: list[Union[ComponentDescriptor, CompositeComponent]] = []
    for child in hierarchy["children"]:
        if isinstance(child, dict):
            children.append(renest_composite(leaves, child))
        else:
            children.append(leaves[child])
    return CompositeComponent(
        hierarchy["name"],
        tuple(children),
        tuple(Wire(r, i, p) for r, i, p in hierarchy["wiring"]),
    )
