"""Workload scenarios: scripted client sessions and message injections."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .documents import decode, record
from .errors import ParseError, ScenarioError
from .model import Access, ApplicationConfiguration


@dataclass(frozen=True)
class ScriptCall:
    at: int
    component: str
    interface: str
    operation: str


@dataclass(frozen=True)
class HomeAction:
    """create/find/remove of a handle on a component's home interface."""

    at: int
    action: str  # create | find | remove
    component: str


@dataclass(frozen=True)
class ClientSession:
    id: str
    access: Access
    script: tuple[Union[ScriptCall, HomeAction], ...]


@dataclass(frozen=True)
class MessageInjection:
    queue: str
    payload: str
    at: int


@dataclass(frozen=True)
class WorkloadScenario:
    clients: tuple[ClientSession, ...] = ()
    messages: tuple[MessageInjection, ...] = ()
    seed: int = 0


_SCENARIO_KEYS = frozenset({"clients", "messages", "seed"})
_CLIENT_KEYS = frozenset({"id", "access", "script"})
_CALL_ENTRY_KEYS = frozenset({"at", "call"})
_HOME_ENTRY_KEYS = frozenset({"at", "home", "component"})
_CALL_KEYS = frozenset({"component", "interface", "operation"})
_MESSAGE_KEYS = frozenset({"queue", "payload", "at"})
_MESSAGE_REQUIRED = frozenset({"queue", "at"})


def parse_scenario(text: str) -> WorkloadScenario:
    doc = record(decode(text, "scenario"), _SCENARIO_KEYS, "scenario document")
    clients = []
    for cdoc in doc.get("clients", []):
        record(cdoc, _CLIENT_KEYS, "client document", frozenset({"id"}))
        try:
            access = Access(cdoc.get("access", "Remote"))
        except ValueError:
            raise ParseError(f"client {cdoc['id']!r}: bad access {cdoc['access']!r}")
        script: list[Union[ScriptCall, HomeAction]] = []
        for entry in cdoc.get("script", []):
            if not isinstance(entry, dict) or "call" in entry:
                record(entry, _CALL_ENTRY_KEYS, "script entry", _CALL_ENTRY_KEYS)
                call = record(entry["call"], _CALL_KEYS, "call entry", _CALL_KEYS)
                script.append(
                    ScriptCall(int(entry["at"]), call["component"], call["interface"], call["operation"])
                )
            elif "home" in entry:
                record(entry, _HOME_ENTRY_KEYS, "script entry", _HOME_ENTRY_KEYS)
                action = entry["home"]
                if action not in ("create", "find", "remove"):
                    raise ParseError(f"unknown home action {action!r}")
                script.append(HomeAction(int(entry["at"]), action, entry["component"]))
            else:
                raise ParseError("script entry needs either 'call' or 'home'")
        clients.append(ClientSession(cdoc["id"], access, tuple(script)))
    ids = [c.id for c in clients]
    if len(ids) != len(set(ids)):
        raise ParseError("duplicate client ids in scenario")
    messages = []
    for mdoc in doc.get("messages", []):
        record(mdoc, _MESSAGE_KEYS, "message document", _MESSAGE_REQUIRED)
        messages.append(MessageInjection(mdoc["queue"], str(mdoc.get("payload", "")), int(mdoc["at"])))
    return WorkloadScenario(tuple(clients), tuple(messages), int(doc.get("seed", 0)))


def validate_scenario(scenario: WorkloadScenario, config: ApplicationConfiguration) -> None:
    """Reject scripts that reference anything not deployed."""
    components = config.components()
    for client in scenario.clients:
        for entry in client.script:
            if isinstance(entry, ScriptCall):
                descriptor = components.get(entry.component)
                if descriptor is None:
                    raise ScenarioError(
                        f"client {client.id!r} calls unknown component {entry.component!r}"
                    )
                if entry.interface not in descriptor.provided_names():
                    raise ScenarioError(
                        f"client {client.id!r} calls unknown interface "
                        f"{entry.component}.{entry.interface}"
                    )
            else:
                if entry.component not in components:
                    raise ScenarioError(
                        f"client {client.id!r} references unknown component {entry.component!r}"
                    )
    for message in scenario.messages:
        if message.queue not in config.queues:
            raise ScenarioError(f"message injection references unknown queue {message.queue!r}")
