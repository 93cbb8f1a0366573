"""One benchmark job: the library calls a `quiesce redeploy` user's command makes.

``request_job`` mirrors `quiesce redeploy APP SCENARIO REQUEST` and
``archive_job`` mirrors `quiesce redeploy APP SCENARIO --archive`, extended
to a sequence of archives handed to one running system.  Both write
events.jsonl, metrics.json and report.json the way the CLI does.

Library functions are called through their modules' attributes, so the
tracer and the phase marks below see every call.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from quiesce import engine as rt
from quiesce import lifecycle, manager, metrics, model, workload

from workloads import Documents

_clock = time.perf_counter


class Marks:
    """Phase timestamps taken at three library boundaries.

    Installed for every job, traced or not: the end of
    ``Engine.load_scenario`` closes set-up on the request path, and each
    ``Engine.snapshot`` start paired with the next ``build_plan`` return is
    one plan sample (the pause before barriers go up).  Costs a few
    wrapper calls per job.
    """

    def __init__(self) -> None:
        self.loaded_at = 0.0
        self.snapshot_at = 0.0
        self.plan_s: list[float] = []
        self.plans: list = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        marks = self
        load_scenario = rt.Engine.load_scenario
        snapshot = rt.Engine.snapshot

        def marked_load_scenario(self, scenario):
            load_scenario(self, scenario)
            marks.loaded_at = _clock()

        def marked_snapshot(self):
            marks.snapshot_at = _clock()
            return snapshot(self)

        self._patch(rt.Engine, "load_scenario", marked_load_scenario)
        self._patch(rt.Engine, "snapshot", marked_snapshot)
        for module in (manager, lifecycle):  # build_plan as each caller imports it
            build_plan = getattr(module, "build_plan")

            def marked_build_plan(*args, _build_plan=build_plan, **kwargs):
                plan = _build_plan(*args, **kwargs)
                marks.plan_s.append(_clock() - marks.snapshot_at)
                marks.plans.append(plan)
                return plan

            self._patch(module, "build_plan", marked_build_plan)

    def _patch(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def reset(self) -> None:
        self.loaded_at = self.snapshot_at = 0.0
        self.plan_s = []
        self.plans = []


@dataclass
class JobResult:
    setup_s: float
    sim_s: float
    output_s: float
    job_s: float
    plan_s: list[float]
    plans: list
    events_text: str
    metrics_text: str
    reports: list
    engine: rt.Engine


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _write_outputs(out: Path, engine_log, reports: list) -> tuple[str, str]:
    """What `quiesce redeploy` writes: events.jsonl, metrics.json, report.json."""
    events_text = engine_log.to_jsonl()
    _write(out / "events.jsonl", events_text)
    metrics_text = metrics.metrics_json_text(metrics.compute_metrics(engine_log.events))
    _write(out / "metrics.json", metrics_text)
    docs = [r.to_json() for r in reports]
    if docs:  # a rejected request leaves no report, as in the CLI
        _write(out / "report.json", json.dumps(docs[0] if len(docs) == 1 else docs, sort_keys=True, indent=2) + "\n")
    return events_text, metrics_text


def _costs(docs: Documents) -> manager.CostModel:
    return manager.CostModel(swap=docs.costs["swap"], sync=docs.costs["sync"], other=docs.costs["other"])


def request_job(docs: Documents, out: Path, marks: Marks, context) -> JobResult:
    """`quiesce redeploy APP SCENARIO REQUEST` with the default options."""
    marks.reset()
    context(f"{docs.workload}/setup")
    t0 = _clock()
    config = model.load_application(docs.app)
    scenario = workload.parse_scenario(docs.scenario)
    request = manager.parse_request(docs.request)
    context(f"{docs.workload}/{request.id}")
    run = manager.run_scenario_with_request(
        config, scenario, request, docs.until,
        blocking="minimal", costs=_costs(docs), drain_timeout=1000,
    )
    t_sim = _clock()
    reports = [run.report] if run.report is not None else []
    events_text, metrics_text = _write_outputs(out, run.log, reports)
    t_end = _clock()
    return JobResult(
        setup_s=marks.loaded_at - t0,
        sim_s=t_sim - marks.loaded_at,
        output_s=t_end - t_sim,
        job_s=t_end - t0,
        plan_s=list(marks.plan_s),
        plans=list(marks.plans),
        events_text=events_text,
        metrics_text=metrics_text,
        reports=reports,
        engine=run.engine,
    )


def archive_job(docs: Documents, out: Path, marks: Marks, context) -> JobResult:
    """`quiesce redeploy APP SCENARIO --archive` for each archive in turn, on one engine.

    Each archive is parsed just before it is handed over, as a user issuing
    one command per archive would; its parse time counts as set-up.
    """
    marks.reset()
    context(f"{docs.workload}/setup")
    t0 = _clock()
    config = model.load_application(docs.app)
    scenario = workload.parse_scenario(docs.scenario)
    engine = rt.Engine(config, seed=scenario.seed)
    engine.load_scenario(scenario)
    t_loaded = marks.loaded_at
    parse_s = 0.0
    deployment = lifecycle.DeploymentManager(engine)
    costs = _costs(docs)
    reports = []
    for k, (text, at) in enumerate(zip(docs.archives, docs.redeploy_at)):
        ta = _clock()
        archive = lifecycle.parse_archive(text)
        parse_s += _clock() - ta
        if k == 0:  # the running application counts as the module's current deployment
            current = lifecycle.ModuleArchive(docs.module, archive.version - 1, tuple(config.components().values()))
            deployment.adopt_running(docs.module, current)
            engine.run(until=0)
        engine.run(until=at)
        context(f"{docs.workload}/redeploy:{docs.module}:{archive.version}")
        reports.append(deployment.redeploy(docs.module, archive, mode="weakened", blocking="minimal", costs=costs))
    engine.run(until=docs.until)
    t_sim = _clock()
    events_text, metrics_text = _write_outputs(out, engine.log, reports)
    t_end = _clock()
    return JobResult(
        setup_s=(t_loaded - t0) + parse_s,
        sim_s=(t_sim - t_loaded) - parse_s,
        output_s=t_end - t_sim,
        job_s=t_end - t0,
        plan_s=list(marks.plan_s),
        plans=list(marks.plans),
        events_text=events_text,
        metrics_text=metrics_text,
        reports=reports,
        engine=engine,
    )


def run_job(docs: Documents, out: Path, marks: Marks, context=lambda name: None) -> JobResult:
    """Run one job; ``context`` is told which request the calls that follow serve."""
    out.mkdir(parents=True, exist_ok=True)
    job = archive_job if docs.archives else request_job
    return job(docs, out, marks, context)
