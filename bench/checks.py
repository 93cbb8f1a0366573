"""Correctness checks and log-derived counts for one job's outputs.

The checks are independent scans of the event log, the reports and the
final snapshot; they never call into the code paths they check.  A
benchmark run whose first job fails any of them is not a result.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from workloads import Documents


def check_log(events, queue_depths: dict[str, int]) -> list[str]:
    """Invariant violations in an event log (empty list: all hold).

    * no transaction aborts;
    * every enqueued message is delivered exactly once, or is still queued
      at the end, and every delivery starts its ``msg:queue:seq`` invocation;
    * every held invocation later starts or is denied;
    * every activated barrier is released;
    * no invocation of a component is running when its swap applies.
    """
    problems: list[str] = []
    enqueued: dict[str, set[int]] = defaultdict(set)
    delivered: Counter = Counter()
    held: set[str] = set()
    started: set[str] = set()
    barriers_up: set[str] = set()
    running: dict[str, set[str]] = defaultdict(set)
    for e in events:
        kind, p = e.kind, e.payload
        if kind == "TxAbort":
            problems.append(f"t={e.t}: transaction {p['tx']} aborted")
        elif kind == "MessageEnqueued":
            enqueued[p["queue"]].add(p["seq"])
        elif kind == "MessageDelivered":
            if p["seq"] not in enqueued[p["queue"]]:
                problems.append(f"t={e.t}: {p['queue']}#{p['seq']} delivered but never enqueued")
            delivered[(p["queue"], p["seq"])] += 1
        elif kind == "InvocationHeld":
            held.add(p["id"])
        elif kind == "InvocationStart":
            held.discard(p["id"])
            started.add(p["id"])
            running[p["component"]].add(p["id"])
        elif kind == "InvocationDenied":
            held.discard(p["id"])
        elif kind == "InvocationEnd":
            running[p["component"]].discard(p["id"])
        elif kind == "BarrierActivated":
            if p["component"] in barriers_up:
                problems.append(f"t={e.t}: barrier on {p['component']} activated twice")
            barriers_up.add(p["component"])
        elif kind == "BarrierReleased":
            barriers_up.discard(p["component"])
        elif kind == "SwapApplied":
            inside = running[p["component"]]
            if inside:
                problems.append(f"t={e.t}: {p['component']} swapped while {sorted(inside)[:3]} ran")
    for (queue, seq), n in sorted(delivered.items()):
        if n > 1:
            problems.append(f"{queue}#{seq} delivered {n} times")
        if f"msg:{queue}:{seq}" not in started:
            problems.append(f"{queue}#{seq} delivered but its invocation never started")
    for queue, seqs in sorted(enqueued.items()):
        waiting = sum(1 for seq in seqs if (queue, seq) not in delivered)
        if waiting != queue_depths.get(queue, 0):
            problems.append(
                f"{queue}: {waiting} messages undelivered but {queue_depths.get(queue, 0)} still queued"
            )
    problems += [f"held invocation {i} never started or denied" for i in sorted(held)[:5]]
    problems += [f"barrier on {c} never released" for c in sorted(barriers_up)]
    return problems


def check_affected(reports, docs: Documents, static_graph) -> list[str]:
    """Each affected set holds its targets and lies inside targets plus their static ancestors."""
    problems = []
    if len(reports) != len(docs.targets):
        problems.append(f"{len(reports)} reports for {len(docs.targets)} requests")
    for report, targets in zip(reports, docs.targets):
        targets = frozenset(targets)
        closure = static_graph.ancestors_of(targets) | targets
        if not targets <= report.affected:
            problems.append(f"{report.request_id}: affected set misses targets {sorted(targets - report.affected)}")
        if not report.affected <= closure:
            problems.append(f"{report.request_id}: {sorted(report.affected - closure)} outside the static closure")
    return problems


def count_ops(events, docs: Documents, reports) -> tuple[int, int, list[str]]:
    """(attempted, failed, why) over root client calls, injected messages and redeploy requests.

    A root call fails if it is denied or never ends; a message if it is
    never delivered or its invocation never ends; a request if its outcome
    is not Completed.
    """
    denied, ended, delivered = set(), set(), set()
    for e in events:
        if e.kind == "InvocationEnd":
            ended.add(e.payload["id"])
        elif e.kind == "InvocationDenied":
            denied.add(e.payload["id"])
        elif e.kind == "MessageDelivered":
            delivered.add(f"msg:{e.payload['queue']}:{e.payload['seq']}")
    roots_ok = sum(1 for i in ended - denied if "." not in i and not i.startswith("msg:"))
    messages_ok = sum(1 for i in delivered if i in ended)
    requests_ok = sum(1 for r in reports if r.outcome == "Completed")
    attempted = docs.root_calls + docs.messages + len(docs.targets)
    why = []
    if roots_ok != docs.root_calls:
        why.append(f"{docs.root_calls - roots_ok} of {docs.root_calls} root calls denied or unfinished")
    if messages_ok != docs.messages:
        why.append(f"{docs.messages - messages_ok} of {docs.messages} messages undelivered or unfinished")
    why += [f"{r.request_id}: {r.outcome} {r.detail}".rstrip() for r in reports if r.outcome != "Completed"]
    if len(reports) < len(docs.targets):
        why.append(f"{len(docs.targets) - len(reports)} requests rejected")
    failed = (docs.root_calls - roots_ok) + (docs.messages - messages_ok) + (len(docs.targets) - requests_ok)
    return attempted, failed, why


def log_counts(events) -> dict[str, int]:
    """Engine-layer counts derived from the log."""
    held = {e.payload["id"] for e in events if e.kind == "InvocationHeld"}
    invocations = pool_wait = depth_max = 0
    depth: Counter = Counter()
    for e in events:
        if e.kind == "InvocationStart":
            invocations += 1
            if e.payload["id"] not in held:
                pool_wait += e.t - e.payload["submitted_at"]
        elif e.kind == "MessageEnqueued":
            depth[e.payload["queue"]] += 1
            depth_max = max(depth_max, depth[e.payload["queue"]])
        elif e.kind == "MessageDelivered":
            depth[e.payload["queue"]] -= 1
    return {
        "engine.events": len(events),
        "engine.invocations": invocations,
        "engine.pool_wait_units": pool_wait,
        "engine.queue_depth_max": depth_max,
    }
