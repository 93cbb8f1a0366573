"""Spans around the library's public functions, recorded from outside the library.

Each function is wrapped at the name its caller looks it up by (a module
attribute or a class attribute), so no file under src/ changes.  A span
records the function, its start and end, the span that called it and the
request it served.  Spans stay in memory; the caller folds them into a
per-layer table after each job and writes the last job's spans out when the
run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable

from quiesce import depgraph, engine, lifecycle, manager, metrics, model, workload

# layer name -> the (owner, attribute) pairs it is looked up by
LAYERS: dict[str, tuple[tuple[object, str], ...]] = {
    "model.load_application": ((model, "load_application"),),
    "model.ApplicationConfiguration.provider_of": ((model.ApplicationConfiguration, "provider_of"),),
    "model.ApplicationConfiguration.components": ((model.ApplicationConfiguration, "components"),),
    "model.ApplicationConfiguration.with_component": ((model.ApplicationConfiguration, "with_component"),),
    "model.check_composition": ((depgraph, "check_composition"), (manager, "check_composition")),
    "automata.advance": ((engine, "advance"),),
    "automata.earliest_occurrence": ((depgraph, "earliest_occurrence"),),
    "workload.parse_scenario": ((workload, "parse_scenario"),),
    "depgraph.build_static_graph": ((manager, "build_static_graph"),),
    "depgraph.build_runtime_graph": ((manager, "build_runtime_graph"),),
    "depgraph.affected_set": ((manager, "affected_set"),),
    "engine.Engine.__init__": ((engine.Engine, "__init__"),),
    "engine.Engine.load_scenario": ((engine.Engine, "load_scenario"),),
    "engine.Engine.run": ((engine.Engine, "run"),),
    "engine.Engine.snapshot": ((engine.Engine, "snapshot"),),
    "engine.EventLog.to_jsonl": ((engine.EventLog, "to_jsonl"),),
    "manager.parse_request": ((manager, "parse_request"),),
    "manager.build_plan": ((manager, "build_plan"), (lifecycle, "build_plan")),
    "manager.execute_plan": ((lifecycle, "execute_plan"),),
    "manager.run_scenario_with_request": ((manager, "run_scenario_with_request"),),
    "lifecycle.parse_archive": ((lifecycle, "parse_archive"),),
    "lifecycle.DeploymentManager.redeploy": ((lifecycle.DeploymentManager, "redeploy"),),
    "metrics.compute_metrics": ((metrics, "compute_metrics"),),
    "metrics.metrics_json_text": ((metrics, "metrics_json_text"),),
}

_clock = time.perf_counter


class Tracer:
    """Wraps every function in LAYERS while installed; one span per call."""

    def __init__(self) -> None:
        self.names = list(LAYERS)
        self.spans: list = []  # (layer index, start, end, parent span index, context index)
        self.contexts: list[str] = []
        self.context = -1
        # layer -> function of a return value, summed into ``counts`` per layer
        self.measure: dict[str, Callable[[object], int]] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def set_context(self, name: str) -> None:
        self.contexts.append(name)
        self.context = len(self.contexts) - 1

    def _wrap(self, index: int, fn):
        tracer, spans, stack = self, self.spans, self._stack
        name = self.names[index]
        measure = self.measure.get(name)

        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spans[me] = (index, start, end, parent, tracer.context)
            if measure is not None:
                tracer.counts[name] += measure(result)
            return result

        return traced

    def install(self) -> None:
        for index, name in enumerate(self.names):
            for owner, attr in LAYERS[name]:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(index, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        self.spans.clear()
        self.contexts.clear()
        self.counts.clear()
        self.context = -1

    def table(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, total seconds and self seconds (total minus time in traced callees)."""
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        child = [0.0] * len(self.spans)  # per span, time inside its traced callees
        for index, start, end, parent, _ in self.spans:
            calls[index] += 1
            if parent >= 0:
                child[parent] += end - start
        self_s = [0.0] * len(self.names)
        for i, (index, start, end, parent, _) in enumerate(self.spans):
            total[index] += end - start
            self_s[index] += (end - start) - child[i]
        return {
            name: {"calls": calls[i], "total_s": total[i], "self_s": self_s[i]}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """The spans as JSON lines, times in seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for i, (index, start, end, parent, context) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "span": i,
                            "name": self.names[index],
                            "start": start - t0,
                            "end": end - t0,
                            "parent": parent,
                            "request": self.contexts[context] if context >= 0 else None,
                        }
                    )
                    + "\n"
                )
