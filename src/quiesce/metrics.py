"""Run metrics derived purely from an event log.

Every figure here is a fold over the events, so recomputing metrics from an
exported log reproduces the emitted metrics exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .engine import (
    BARRIER_ACTIVATED,
    BARRIER_RELEASED,
    INVOCATION_HELD,
    INVOCATION_START,
    MESSAGE_DELIVERED,
    MESSAGE_ENQUEUED,
    SESSION_INVALIDATED,
    TX_ABORT,
    Event,
)


@dataclass(frozen=True)
class RunMetrics:
    downtime: dict[str, int] = field(default_factory=dict)  # component -> barrier-not-open units
    held_count: int = 0
    held_max_wait: int = 0
    held_mean_wait: float = 0.0
    aborted_transactions: int = 0
    invalidated_sessions: int = 0
    messages_enqueued: int = 0
    messages_delivered: int = 0
    messages_lost: int = 0  # no event records a lost message, so this reads 0
    total_time: int = 0

    def to_json(self) -> dict:
        return {
            "downtime": dict(sorted(self.downtime.items())),
            "held_invocations": {
                "count": self.held_count,
                "max_wait": self.held_max_wait,
                "mean_wait": self.held_mean_wait,
            },
            "aborted_transactions": self.aborted_transactions,
            "invalidated_sessions": self.invalidated_sessions,
            "messages": {
                "enqueued": self.messages_enqueued,
                "delivered": self.messages_delivered,
                "lost": self.messages_lost,
            },
            "total_time": self.total_time,
        }


def compute_metrics(events: list[Event]) -> RunMetrics:
    downtime: dict[str, int] = {}
    activated_at: dict[str, int] = {}
    held_at: dict[str, int] = {}
    waits: list[int] = []
    aborted = 0
    sessions: set[str] = set()
    enqueued: dict[str, int] = {}
    delivered: dict[str, int] = {}
    total_time = 0
    for t, kind, payload in events:
        if t > total_time:
            total_time = t
        if kind == BARRIER_ACTIVATED:
            activated_at[payload["component"]] = t
        elif kind == BARRIER_RELEASED:
            component = payload["component"]
            start = activated_at.pop(component, t)
            downtime[component] = downtime.get(component, 0) + (t - start)
        elif kind == INVOCATION_HELD:
            held_at[payload["id"]] = t
        elif kind == INVOCATION_START:
            t0 = held_at.pop(payload["id"], None)
            if t0 is not None:
                waits.append(t - t0)
        elif kind == TX_ABORT:
            aborted += 1
        elif kind == SESSION_INVALIDATED:
            sessions.add(payload["session"])
        elif kind == MESSAGE_ENQUEUED:
            queue = payload["queue"]
            enqueued[queue] = enqueued.get(queue, 0) + 1
        elif kind == MESSAGE_DELIVERED:
            queue = payload["queue"]
            delivered[queue] = delivered.get(queue, 0) + 1
    # barriers never released count as down until the end of the run
    for component, start in activated_at.items():
        downtime[component] = downtime.get(component, 0) + (total_time - start)
    # invocations still held at the end of a truncated run waited until the end
    for _, t0 in held_at.items():
        waits.append(total_time - t0)
    held_count = len(waits)
    return RunMetrics(
        downtime=downtime,
        held_count=held_count,
        held_max_wait=max(waits) if waits else 0,
        held_mean_wait=round(sum(waits) / held_count, 6) if held_count else 0.0,
        aborted_transactions=aborted,
        invalidated_sessions=len(sessions),
        messages_enqueued=sum(enqueued.values()),
        messages_delivered=sum(delivered.values()),
        total_time=total_time,
    )


def metrics_json_text(metrics: RunMetrics) -> str:
    return json.dumps(metrics.to_json(), sort_keys=True, indent=2) + "\n"

