"""Workload scenarios: scripted client sessions and message injections."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

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


def parse_scenario(text: str) -> WorkloadScenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid scenario JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    unknown = set(doc) - {"clients", "messages", "seed"}
    if unknown:
        raise ParseError(f"unknown keys in scenario document: {sorted(unknown)}")
    clients = []
    for cdoc in doc.get("clients", []):
        c_unknown = set(cdoc) - {"id", "access", "script"}
        if c_unknown:
            raise ParseError(f"unknown keys in client document: {sorted(c_unknown)}")
        try:
            access = Access(cdoc.get("access", "Remote"))
        except ValueError:
            raise ParseError(f"client {cdoc.get('id')!r}: bad access {cdoc.get('access')!r}")
        script: list[Union[ScriptCall, HomeAction]] = []
        for entry in cdoc.get("script", []):
            keys = set(entry)
            if "call" in keys:
                if keys - {"at", "call"}:
                    raise ParseError(f"unknown keys in script entry: {sorted(keys - {'at', 'call'})}")
                call = entry["call"]
                c_keys = set(call) - {"component", "interface", "operation"}
                if c_keys:
                    raise ParseError(f"unknown keys in call entry: {sorted(c_keys)}")
                script.append(
                    ScriptCall(int(entry["at"]), call["component"], call["interface"], call["operation"])
                )
            elif "home" in keys:
                if keys - {"at", "home", "component"}:
                    raise ParseError(
                        f"unknown keys in script entry: {sorted(keys - {'at', 'home', 'component'})}"
                    )
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
        m_unknown = set(mdoc) - {"queue", "payload", "at"}
        if m_unknown:
            raise ParseError(f"unknown keys in message document: {sorted(m_unknown)}")
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
