"""Static application model: components, composites, containers, change kinds.

Everything here is an immutable value.  ``load_application`` reads the
description document under the package's one document rule (``documents``)
and validates it; every other operation in the package works off the
resulting ``ApplicationConfiguration``.  The composition rules live in one place,
``check_composition``: validation rejects a document on the report's first
finding, and the same report judges a configuration after a swap.
Configurations and component descriptors index themselves lazily, once per
instance, and a configuration keeps its composition report the same way;
every change makes a new instance, so an index or a report never goes stale.
Composites exist only in the document: loading expands them once, and a
configuration holds its leaf descriptors and its wires as two flat tuples.
Its indexes come from two passes, one over the leaves (the leaf map) and one
over the wires (the wires per requirement and the requirers per provider).
``with_component`` replaces one entry of the leaf map and hands the copy
these indexes: it changes no wiring, so they are what a fresh build would
give.  The copy's composition report is built on first read.  When it
descends, through copies like it, from a configuration whose report was
consistent, only the findings about the replaced components can be new, so
only those are checked; the copy keeps their names for that, never the
configuration it came from.
A descriptor keeps its access pairs sorted, so equal documents give equal
descriptors and ``==`` alone tells a changed component from an unchanged one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Iterable, Optional

from .automata import (
    AutomatonCursor,
    ServiceEffectAutomaton,
    automaton_from_json,
    automaton_to_json,
)
from .documents import decode, record, typed
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
    """Reconfiguration effort classes; ``diff_versions`` gives one per changed component."""

    FUNCTIONAL = "Functional"
    NON_FUNCTIONAL = "NonFunctional"
    STRUCTURAL = "Structural"


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


@dataclass(frozen=True)
class OperationSpec:
    """Behavioural description of a provided operation.

    ``effect_automaton`` may be None for operations with no protocol
    information; the dependency analysis then falls back to static edges.
    A spec with an automaton hands out one cursor per state of it, built on
    first use and kept, so a running operation moves between shared cursors
    instead of building one per step.  The spec holds its cursors and each
    cursor its automaton, so no reference cycle keeps an automaton alive.
    """

    name: str
    tx_attribute: TxAttribute
    duration: int
    effect_automaton: Optional[ServiceEffectAutomaton] = None

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ValidationError(f"operation {self.name!r}: duration must be >= 1")

    @cached_property
    def _cursors(self) -> dict[str, AutomatonCursor]:
        return {}

    def cursor_at(self, state: str) -> AutomatonCursor:
        """The one cursor of ``effect_automaton`` (which must be set) at ``state``."""
        cursor = self._cursors.get(state)
        if cursor is None:
            cursor = self._cursors[state] = AutomatonCursor(self.effect_automaton, state)
        return cursor


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

    def __post_init__(self) -> None:
        # one canonical order, so equal documents make equal descriptors
        object.__setattr__(self, "access", tuple(sorted(self.access)))

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
    def _provided_operations(self) -> dict[tuple[str, str], Optional[OperationSpec]]:
        """(interface, operation) -> the operation's spec, or None when it has none."""
        specs = self._specs_by_name
        return {(sig.name, op.name): specs.get(op.name) for sig in self.provided for op in sig.operations}

    def operation_spec(self, name: str) -> Optional[OperationSpec]:
        return self._specs_by_name.get(name)

    def provides_operation(self, interface: str, operation: str) -> bool:
        return (interface, operation) in self._provided_operations

    def provided_spec(self, interface: str, operation: str) -> Optional[OperationSpec]:
        """The spec of ``interface.operation`` when the component provides it and has one, else None."""
        return self._provided_operations.get((interface, operation))

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

    @property
    def consistent(self) -> bool:
        return not self.findings


@dataclass(frozen=True)
class ApplicationConfiguration:
    """The deployed application: leaf components, wires, containers, stores, queues.

    Composites group components in the document only.  Loading expands them
    into ``leaves`` (the components outside any composite, then each
    composite's leaves in child order, a nested composite's in its place) and
    ``wires`` (the top-level wiring, then each composite's own wiring before
    that of the composites inside it).
    """

    leaves: tuple[ComponentDescriptor, ...]
    wires: tuple[Wire, ...]
    containers: tuple[ContainerSpec, ...]
    data_stores: tuple[tuple[str, tuple[str, ...]], ...]
    queues: tuple[str, ...]
    version: int

    # The indexes and the composition report: built on first use and kept in
    # the instance ``__dict__``, outside the compared and hashed fields.  The
    # leaf pass fills ``_leaves``; the wire pass fills ``_wires_by_requirement``
    # and ``_callers``.  ``with_component`` may also leave ``_changed``: the
    # leaves replaced since a consistent report, the only ones the copy's
    # report has to check.

    @cached_property
    def _leaves(self) -> dict[str, ComponentDescriptor]:
        """name -> leaf descriptor, in ``leaves`` order."""
        return {leaf.name: leaf for leaf in self.leaves}

    @cached_property
    def _wires_by_requirement(self) -> dict[tuple[str, str], list[Wire]]:
        """(requirer, interface) -> its wires in wiring order; more than one only when invalid.

        The same pass records ``_callers``.
        """
        out: dict[tuple[str, str], list[Wire]] = {}
        callers: dict[str, list[str]] = {}
        for wire in self.wires:
            out.setdefault((wire.requirer, wire.interface), []).append(wire)
            if wire.provider is not None:
                callers.setdefault(wire.provider, []).append(wire.requirer)
        self.__dict__["_callers"] = callers
        return out

    @cached_property
    def _callers(self) -> dict[str, list[str]]:
        """Reverse-wire index: provider -> the requirer of each wire to it, in wiring order."""
        self._wires_by_requirement  # its pass records the callers
        return self.__dict__["_callers"]

    @cached_property
    def _composition(self) -> ConsistencyReport:
        return _check_composition(self, self.__dict__.pop("_changed", None))

    def components(self) -> dict[str, ComponentDescriptor]:
        return dict(self._leaves)

    def component(self, name: str) -> Optional[ComponentDescriptor]:
        """The leaf descriptor ``name``, or None; unlike ``components()`` it copies nothing."""
        return self._leaves.get(name)

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
        """Copy of this configuration with one leaf descriptor replaced and version bumped.

        The wiring does not change, so the copy starts with this
        configuration's indexes, the leaf map with one entry replaced.  Its
        composition report is built on first read, from the replaced names
        only when this configuration's report is consistent or is itself to be
        built that way.  A name that is not deployed changes only the version.
        """
        if descriptor.name not in self._leaves:
            return replace(self, version=self.version + 1)
        leaves = {**self._leaves, descriptor.name: descriptor}
        child = ApplicationConfiguration(
            tuple(leaves.values()), self.wires, self.containers, self.data_stores, self.queues, self.version + 1
        )
        child.__dict__.update(
            _leaves=leaves,
            _wires_by_requirement=self._wires_by_requirement,
            _callers=self._callers,
        )
        report = self.__dict__.get("_composition")
        if report is None:
            changed = self.__dict__.get("_changed")  # None: nothing consistent to build on
        else:
            changed = frozenset() if report.consistent else None
        if changed is not None:
            child.__dict__["_changed"] = changed | {descriptor.name}
        return child

    def with_added(
        self, descriptor: ComponentDescriptor, spec: ContainerSpec, wiring: Iterable[Wire]
    ) -> "ApplicationConfiguration":
        """Copy of this configuration with a new last leaf, its wires last and its container; same version."""
        return replace(
            self,
            leaves=self.leaves + (descriptor,),
            wires=self.wires + tuple(wiring),
            containers=self.containers + (spec,),
        )

    def without_component(self, name: str) -> "ApplicationConfiguration":
        """Copy of this configuration without leaf ``name``, the wires naming it and its container."""
        return replace(
            self,
            leaves=tuple(leaf for leaf in self.leaves if leaf.name != name),
            wires=tuple(w for w in self.wires if name not in (w.requirer, w.provider)),
            containers=tuple(c for c in self.containers if c.hosted_component != name),
        )


# ---------------------------------------------------------------------------
# Document parsing
# ---------------------------------------------------------------------------

_TOP_KEYS = frozenset({"components", "composites", "wiring", "containers", "data_stores", "queues", "version"})
_COMPONENT_KEYS = frozenset(
    {"name", "version", "kind", "provided", "required", "operations", "state_fields", "entity_schema",
     "access", "data_store", "queue"}
)
_COMPONENT_REQUIRED = frozenset({"name", "kind"})
_NAME = frozenset({"name"})
_INTERFACE_KEYS = frozenset({"name", "operations"})
_SIGNATURE_OP_KEYS = frozenset({"name", "params", "returns"})
_OPERATION_KEYS = frozenset({"name", "tx_attribute", "duration", "effect_automaton"})
_WIRE_KEYS = frozenset({"requirer", "interface", "provider"})
_WIRE_REQUIRED = frozenset({"requirer", "interface"})
_COMPOSITE_KEYS = frozenset({"name", "children", "internal_wiring"})
_CONTAINER_KEYS = frozenset({"hosted_component", "interceptor_chain", "pool_size"})
_STORE_KEYS = frozenset({"name", "schema"})


def _parse_interface(doc: dict) -> InterfaceSignature:
    record(doc, _INTERFACE_KEYS, "interface", _NAME, "name")
    ops = []
    what = "interface operation"
    for op in doc.get("operations", []):
        record(op, _SIGNATURE_OP_KEYS, what, _NAME, "name")
        params = typed(op, "params", (list,), what, "name", default=[])
        if not all(type(param) is str for param in params):
            raise ParseError(f"{what} {op['name']!r}: 'params' must be a list of strings")
        returns = typed(op, "returns", (str,), what, "name", default="void")
        ops.append(Operation(op["name"], tuple(params), returns))
    return InterfaceSignature(doc["name"], tuple(ops))


def _names(doc: dict, key: str) -> tuple[str, ...]:
    """The component field ``key`` (absent: empty), once it is a list of strings."""
    if key not in doc:
        return ()
    names = doc[key]
    if type(names) is not list:
        typed(doc, key, (list,), "component", "name")  # raises, naming the fault
    for name in names:  # a loop, not all(): no generator on the valid path
        if type(name) is not str:
            raise ParseError(f"component {doc['name']!r}: {key!r} must be a list of strings")
    return tuple(names)


def parse_component(doc: dict) -> ComponentDescriptor:
    record(doc, _COMPONENT_KEYS, "component", _COMPONENT_REQUIRED, "name")
    try:
        kind = ComponentKind(doc["kind"])
    except ValueError:
        raise ParseError(f"component {doc['name']!r}: unknown kind {doc['kind']!r}")
    operations = []
    for op in doc.get("operations", []):
        record(op, _OPERATION_KEYS, "operation", _NAME, "name")
        try:
            attr = TxAttribute(op.get("tx_attribute", "None"))
        except ValueError:
            raise ParseError(f"operation {op['name']!r}: bad tx_attribute {op['tx_attribute']!r}")
        automaton = None
        if op.get("effect_automaton") is not None:
            automaton = automaton_from_json(op["effect_automaton"])
        duration = op.get("duration", 1)
        if type(duration) is not int:
            typed(op, "duration", (int,), "operation", "name")  # raises, naming the fault
        operations.append(OperationSpec(op["name"], attr, duration, automaton))
    access_doc = doc.get("access", {})
    if type(access_doc) is not dict:
        typed(doc, "access", (dict,), "component", "name")  # raises, naming the fault
    access = []
    for iface, acc in access_doc.items():
        try:
            access.append((iface, Access(acc)))
        except ValueError:
            raise ParseError(f"component {doc['name']!r}: bad access value {acc!r}")
    version = doc.get("version", 1)
    if type(version) is not int:
        typed(doc, "version", (int,), "component", "name")  # raises, naming the fault
    return ComponentDescriptor(
        name=doc["name"],
        version=version,
        kind=kind,
        provided=tuple(_parse_interface(i) for i in doc.get("provided", [])),
        required=_names(doc, "required"),
        operations=tuple(operations),
        state_fields=_names(doc, "state_fields"),
        entity_schema=_names(doc, "entity_schema"),
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


def _parse_wire(doc: dict) -> Wire:
    record(doc, _WIRE_KEYS, "wire", _WIRE_REQUIRED)
    return Wire(doc["requirer"], doc["interface"], doc.get("provider"))


def load_application(document: str) -> ApplicationConfiguration:
    """Parse and validate an application description document.

    Raises ParseError for malformed input (including unknown keys — the
    format is strict) and ValidationError naming the first violated
    invariant.  A configuration returned from here always has an empty
    consistency report.
    """
    doc = record(
        decode(document, "application"), _TOP_KEYS, "application document", frozenset({"components"})
    )
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
        record(cd, _COMPOSITE_KEYS, "composite", _NAME, "name")
        name = cd["name"]
        if name in comp_children or name in by_name:
            raise ValidationError(f"duplicate composite name {name!r}")
        comp_children[name] = list(cd.get("children", []))
        comp_wiring[name] = [_parse_wire(w) for w in cd.get("internal_wiring", [])]
        for child in comp_children[name]:
            if child in claimed:
                raise ValidationError(f"{child!r} is a child of two composites")
            claimed[child] = name

    leaves = [c for c in components if c.name not in claimed]
    nested_wires: list[Wire] = []
    reached: set[str] = set()

    def expand(name: str) -> None:
        """Append composite ``name``'s leaves in tree order, and its wiring before its composites'."""
        reached.add(name)
        nested_wires.extend(comp_wiring[name])
        for child in comp_children[name]:
            if child in by_name:
                leaves.append(by_name[child])
            elif child in comp_children:
                expand(child)
            else:
                raise ValidationError(f"composite {name!r} references unknown child {child!r}")

    for name in comp_children:
        if name not in claimed:
            expand(name)
    unreached = [name for name in comp_children if name not in reached]
    if unreached:  # each is claimed by another unreached one, so its claims lead round a cycle
        seen, name = set(), unreached[0]
        while name not in seen:
            seen.add(name)
            name = claimed[name]
        raise ValidationError(f"composite cycle through {name!r}")
    wires = tuple(_parse_wire(w) for w in doc.get("wiring", [])) + tuple(nested_wires)

    containers = []
    for cd in doc.get("containers", []):
        record(cd, _CONTAINER_KEYS, "container", frozenset({"hosted_component"}))
        hosted = typed(cd, "hosted_component", (str,), "container", "hosted_component")
        pool_size = typed(cd, "pool_size", (int,), "container", "hosted_component", default=4)
        chain = DEFAULT_INTERCEPTOR_CHAIN
        if "interceptor_chain" in cd:
            kinds = typed(cd, "interceptor_chain", (list,), "container", "hosted_component")
            try:
                chain = tuple(InterceptorKind(k) for k in kinds)
            except ValueError:
                raise ParseError(f"container {hosted!r}: unknown interceptor kind")
        containers.append(ContainerSpec(hosted, chain, pool_size))

    stores = []
    for sd in doc.get("data_stores", []):
        record(sd, _STORE_KEYS, "data store", _NAME, "name")
        stores.append((sd["name"], tuple(sd.get("schema", []))))

    config = ApplicationConfiguration(
        leaves=tuple(leaves),
        wires=wires,
        containers=tuple(containers),
        data_stores=tuple(stores),
        queues=tuple(doc.get("queues", [])),
        version=int(doc.get("version", 1)),
    )
    validate_configuration(config)
    return config


def validate_configuration(config: ApplicationConfiguration) -> None:
    """Check every model invariant; raise ValidationError naming the first violation.

    The composition rules are ``check_composition``'s alone: its first
    finding is raised in the text ``build_static_graph`` gives it.
    """
    components = config.components()
    for c in components.values():
        c.validate()
    for spec in config.containers:
        spec.validate()
        if spec.hosted_component not in components:
            raise ValidationError(f"container hosts unknown component {spec.hosted_component!r}")
    hosted = {spec.hosted_component for spec in config.containers}
    if len(hosted) != len(config.containers):
        raise ValidationError("a component is hosted by more than one container")
    for name in components:
        if name not in hosted:
            raise ValidationError(f"component {name!r} has no container")

    for wire in config.wires:
        if wire.requirer not in components:
            raise ValidationError(f"wire requirer {wire.requirer!r} is not a deployed component")
        if wire.interface not in components[wire.requirer].required:
            raise ValidationError(
                f"wire on {wire.requirer!r}: interface {wire.interface!r} is not declared required"
            )
    for (requirer, interface), wires in config._wires_by_requirement.items():
        if len(wires) > 1:
            raise ValidationError(
                f"requirement {requirer!r}/{interface!r} wired to more than one provider"
            )

    report = check_composition(config)
    if not report.consistent:
        first = report.findings[0]
        raise ValidationError(f"{first.kind}: {first.subject}: {first.detail}")


def check_composition(config: ApplicationConfiguration) -> ConsistencyReport:
    """Report every composition inconsistency; empty report iff consistent.

    This never raises: findings are data for the caller, whether that is
    loading (which rejects on the first), a plan's check of its target
    before any barrier goes up, or the static graph.  The report is kept on
    the configuration, so a plan's check and the next plan's static graph share it.
    """
    return config._composition


def _check_composition(
    config: ApplicationConfiguration, names: Optional[frozenset[str]] = None
) -> ConsistencyReport:
    """The findings about every component, or only about the components in ``names``.

    A finding is about a component when it is its subject or, for a wire, its
    requirer or provider.  With ``names``, the result is the whole report of a
    configuration that differs from a consistent one only in those leaves.
    """
    findings: list[ConsistencyFinding] = []
    components = config._leaves
    checked = components.keys() if names is None else names & components.keys()
    subjects = [components[name] for name in sorted(checked)]  # in name order

    by_requirement = config._wires_by_requirement
    for c in subjects:
        for interface in c.required:
            if (c.name, interface) not in by_requirement:
                findings.append(
                    ConsistencyFinding(
                        "unwired-requirement", c.name, f"requires {interface!r} with no wire"
                    )
                )

    for wire in config.wires:
        if wire.provider is None:
            continue
        if names is not None and wire.requirer not in names and wire.provider not in names:
            continue  # a wire between components outside ``names``
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
    for c in subjects:
        if c.kind is ComponentKind.ENTITY and (c.data_store is None or c.data_store not in store_names):
            findings.append(
                ConsistencyFinding("dangling-store", c.name, f"data store {c.data_store!r} missing")
            )
        if c.kind is ComponentKind.MESSAGE_DRIVEN and (c.queue is None or c.queue not in config.queues):
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
