"""Command-line harness.

Loads application, workload, and request documents, drives the engine and
the reconfiguration manager, and writes machine-readable outputs: the event
log as JSON lines plus metrics/report/graph JSON.  Given identical inputs
every output file is byte-identical across runs.

Exit codes: 0 clean run, 1 usage or document error, 2 protocol violation,
3 rejected request.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import engine as rt
from .depgraph import (
    ReconfigurationWindow,
    affected_set,
    build_runtime_graph,
    build_static_graph,
    graph_to_dot,
    graph_to_json,
)
from .documents import decode, record
from .errors import ParseError, ProtocolViolation, QuiesceError, Rejection
from .lifecycle import DeploymentManager, ModuleArchive, ModuleState, archive_to_json, parse_archive
from .manager import (
    CostModel,
    RedeploymentRun,
    ReconfigurationRequest,
    TargetChange,
    classify_structural_safety,
    estimate_window,
    parse_request,
    run_scenario_with_request,
)
from .metrics import compute_metrics, metrics_json_text
from .model import ChangeKind, load_application, parse_component
from .snapshot import load_snapshot
from .workload import WorkloadScenario, parse_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROTOCOL = 2
EXIT_REJECTED = 3

_EMPTY_APP = '{"components": [], "version": 1}'


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        _fail(f"{path}: {exc.strerror or exc}")


def _fail(message: str, code: int = EXIT_USAGE) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_app(path: str | None):
    if path is None:
        return load_application(_EMPTY_APP)
    try:
        return load_application(_read(path))
    except QuiesceError as exc:
        _fail(f"{path}: {exc}")


def _load_scenario(path: str | None) -> WorkloadScenario:
    if path is None:
        return WorkloadScenario()
    try:
        return parse_scenario(_read(path))
    except QuiesceError as exc:
        _fail(f"{path}: {exc}")


def _out_dir(ctx: click.Context) -> Path:
    out = Path(ctx.obj.get("out") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")
    click.echo(str(path))


def _write_json(path: Path, doc) -> None:
    _write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _costs(swap_cost: int, sync_cost: int, step_cost: int) -> CostModel:
    return CostModel(swap=swap_cost, sync=sync_cost, other=step_cost)


@click.group()
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@click.option("--out", type=click.Path(file_okay=False), default=None, help="Output directory.")
@click.pass_context
def cli(ctx: click.Context, seed: int | None, out: str | None) -> None:
    """Controlled runtime redeployment: simulate, analyze, redeploy."""
    ctx.obj = {"seed": seed, "out": out}


def _apply_seed(ctx: click.Context, scenario: WorkloadScenario) -> WorkloadScenario:
    seed = ctx.obj.get("seed")
    if seed is None:
        return scenario
    from dataclasses import replace

    return replace(scenario, seed=seed)


@cli.command()
@click.argument("app_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--until", type=int, default=1000, show_default=True)
@click.pass_context
def simulate(ctx: click.Context, app_file: str, scenario_file: str, until: int) -> None:
    """Run a workload and write the event log and metrics."""
    config = _load_app(app_file)
    scenario = _apply_seed(ctx, _load_scenario(scenario_file))
    out = _out_dir(ctx)
    engine = rt.Engine(config, seed=scenario.seed)
    try:
        engine.load_scenario(scenario)
    except QuiesceError as exc:
        _fail(f"{scenario_file}: {exc}")
    code = EXIT_OK
    try:
        engine.run(until=until)
    except ProtocolViolation as exc:
        click.echo(f"protocol violation: {exc}", err=True)
        code = EXIT_PROTOCOL
    _write(out / "events.jsonl", engine.log.to_jsonl())
    _write(out / "metrics.json", metrics_json_text(compute_metrics(engine.log.events)))
    sys.exit(code)


@cli.command()
@click.argument("app_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("request_file", type=click.Path(exists=True, dir_okay=False), required=False)
@click.option("--archive", "archive_file", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Redeploy from a module archive instead of a request document.")
@click.option("--mode", type=click.Choice(["strict", "weakened"]), default="weakened", show_default=True)
@click.option("--blocking", type=click.Choice(["minimal", "whole-app"]), default="minimal", show_default=True)
@click.option("--until", type=int, default=1000, show_default=True)
@click.option("--swap-cost", type=int, default=10, show_default=True)
@click.option("--sync-cost", type=int, default=5, show_default=True)
@click.option("--step-cost", type=int, default=1, show_default=True)
@click.option("--drain-timeout", type=int, default=1000, show_default=True)
@click.pass_context
def redeploy(
    ctx: click.Context,
    app_file: str,
    scenario_file: str,
    request_file: str | None,
    archive_file: str | None,
    mode: str,
    blocking: str,
    until: int,
    swap_cost: int,
    sync_cost: int,
    step_cost: int,
    drain_timeout: int,
) -> None:
    """Run a workload with a reconfiguration request injected mid-flight."""
    config = _load_app(app_file)
    scenario = _apply_seed(ctx, _load_scenario(scenario_file))
    costs = _costs(swap_cost, sync_cost, step_cost)
    out = _out_dir(ctx)

    if archive_file is not None:
        try:
            archive = parse_archive(_read(archive_file))
        except QuiesceError as exc:
            _fail(f"{archive_file}: {exc}")
        module = archive.module

        def run() -> RedeploymentRun:
            engine = rt.Engine(config, seed=scenario.seed, drain_timeout=drain_timeout)
            engine.load_scenario(scenario)
            manager = DeploymentManager(engine)
            # the running application counts as the module's current deployment
            current = ModuleArchive(module, archive.version - 1, tuple(config.components().values()))
            manager.adopt_running(module, current)
            engine.run(until=0)
            report = manager.redeploy(module, archive, mode=mode, blocking=blocking, costs=costs)
            engine.run(until=until)
            return RedeploymentRun(engine.log, engine, report)

    else:
        if request_file is None:
            _fail("either REQUEST_FILE or --archive is required")
        try:
            request = parse_request(
                _read(request_file),
                file_loader=lambda rel: _read(str(Path(request_file).parent / rel)),
            )
        except QuiesceError as exc:
            _fail(f"{request_file}: {exc}")

        def run() -> RedeploymentRun:
            return run_scenario_with_request(
                config, scenario, request, until,
                blocking=blocking, costs=costs, drain_timeout=drain_timeout, mode=mode,
            )

    try:
        result = run()
    except Rejection as exc:
        for verdict in exc.verdicts:
            click.echo(json.dumps(verdict.to_json(), sort_keys=True), err=True)
        click.echo(f"rejected: {exc}", err=True)
        sys.exit(EXIT_REJECTED)
    except ProtocolViolation as exc:
        click.echo(f"protocol violation: {exc}", err=True)
        sys.exit(EXIT_PROTOCOL)
    except QuiesceError as exc:
        _fail(str(exc))
    _write(out / "events.jsonl", result.log.to_jsonl())
    _write(out / "metrics.json", metrics_json_text(compute_metrics(result.log.events)))
    report = result.report
    _write_json(out / "report.json", report.to_json())
    if report.outcome != "Completed":
        reason = report.detail or "{0.kind}: {0.subject}: {0.detail}".format(report.findings[0])
        click.echo(f"{report.outcome}: {reason}", err=True)
        sys.exit(EXIT_REJECTED)
    sys.exit(EXIT_OK)


@cli.command(name="analyze-deps")
@click.argument("app_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--snapshot", "snapshot_file", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--targets", default="", help="Comma-separated component names.")
@click.option("--window", default="auto", show_default=True,
              help="Window duration: an integer, 'auto' (cost model), or 'inf'.")
@click.option("--format", "fmt", type=click.Choice(["json", "dot"]), default="json", show_default=True)
@click.option("--swap-cost", type=int, default=10, show_default=True)
@click.option("--sync-cost", type=int, default=5, show_default=True)
@click.option("--step-cost", type=int, default=1, show_default=True)
@click.pass_context
def analyze_deps(
    ctx: click.Context,
    app_file: str,
    snapshot_file: str,
    targets: str,
    window: str,
    fmt: str,
    swap_cost: int,
    sync_cost: int,
    step_cost: int,
) -> None:
    """Emit the static graph, the pruned runtime graph, and the affected set."""
    config = _load_app(app_file)
    try:
        snap = load_snapshot(_read(snapshot_file), config)
    except QuiesceError as exc:
        _fail(f"{snapshot_file}: {exc}")
    target_set = frozenset(t for t in targets.split(",") if t)
    try:
        static = build_static_graph(config)
        if window == "inf":
            win = ReconfigurationWindow(snap.time, None)
        elif window == "auto":
            request = ReconfigurationRequest(
                id="analysis",
                targets=tuple(TargetChange(t, None) for t in sorted(target_set)) or (TargetChange(static.nodes[0], None),),
                requested_at=snap.time,
            )
            win = estimate_window(request, static, _costs(swap_cost, sync_cost, step_cost))
        else:
            win = ReconfigurationWindow(snap.time, int(window))
        runtime = build_runtime_graph(snap, win)
        affected = affected_set(runtime, static, target_set) if target_set else frozenset()
    except ValueError:
        _fail(f"--window must be an integer, 'auto', or 'inf' (got {window!r})")
    except QuiesceError as exc:
        _fail(str(exc))
    out = _out_dir(ctx)
    _write_json(out / "deps.json", graph_to_json(static, runtime, affected))
    if fmt == "dot":
        _write(out / "deps.dot", graph_to_dot(static, runtime, affected))
    sys.exit(EXIT_OK)


# ---------------------------------------------------------------------------
# Lifecycle commands (module state persisted between invocations)
# ---------------------------------------------------------------------------


_STATE_KEYS = frozenset({"modules"})
_MODULE_KEYS = frozenset({"archive", "state"})


def _save_state(path: str, state: dict) -> None:
    Path(path).write_text(json.dumps(state, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _manager_from_state(config, path: str) -> DeploymentManager:
    """A manager holding the modules of the state file (if it exists) in their recorded states."""
    manager = DeploymentManager(rt.Engine(config))
    try:
        doc = record(decode(_read(path), "state"), _STATE_KEYS, "state file") if Path(path).exists() else {}
        modules = doc.get("modules", {})
        if not isinstance(modules, dict):
            raise ParseError("state file: modules must be a JSON object")
        for module_id in sorted(modules):
            entry = record(modules[module_id], _MODULE_KEYS, f"module {module_id!r}", _MODULE_KEYS)
            state = next((s for s in ModuleState if s.value == entry["state"]), None)
            if state is None:
                valid = [s.value for s in ModuleState]
                raise ParseError(f"module {module_id!r}: state {entry['state']!r} is not one of {valid}")
            archive = parse_archive(json.dumps(entry["archive"]))
            if state is ModuleState.UNDEPLOYED:
                continue
            manager.distribute(archive)
            if state is not ModuleState.DISTRIBUTED:
                manager.start(module_id)
            if state is ModuleState.STOPPED:
                manager.stop(module_id)
    except QuiesceError as exc:
        _fail(f"{path}: {exc}")
    manager.events.clear()
    return manager


def _persist_manager(path: str, manager: DeploymentManager) -> None:
    state = {"modules": {}}
    for module_id, record in sorted(manager.modules.items()):
        state["modules"][module_id] = {
            "archive": archive_to_json(record.archive),
            "state": record.state.value,
        }
    _save_state(path, state)


def _echo_progress(manager: DeploymentManager) -> None:
    for event in manager.events:
        click.echo(
            json.dumps(
                {
                    "operation": event.operation,
                    "module": event.module,
                    "status": event.status,
                    "detail": event.detail,
                },
                sort_keys=True,
            )
        )


def _lifecycle_command(ctx, app_file, state_file, action) -> None:
    config = _load_app(app_file)
    manager = _manager_from_state(config, state_file)
    code = EXIT_OK
    try:
        action(manager)
    except Rejection as exc:
        click.echo(f"rejected: {exc}", err=True)
        code = EXIT_REJECTED
    except QuiesceError as exc:
        _echo_progress(manager)
        _fail(str(exc))
    _echo_progress(manager)
    _persist_manager(state_file, manager)
    sys.exit(code)


@cli.command()
@click.argument("archive_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--app", "app_file", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--state", "state_file", default="modules.json", show_default=True)
@click.pass_context
def distribute(ctx, archive_file: str, app_file: str | None, state_file: str) -> None:
    """Distribute a module archive (containers created, not started)."""
    archive = None
    try:
        archive = parse_archive(_read(archive_file))
    except QuiesceError as exc:
        _fail(f"{archive_file}: {exc}")
    _lifecycle_command(ctx, app_file, state_file, lambda m: m.distribute(archive))


@cli.command()
@click.argument("module")
@click.option("--app", "app_file", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--state", "state_file", default="modules.json", show_default=True)
@click.pass_context
def start(ctx, module: str, app_file: str | None, state_file: str) -> None:
    """Start a distributed module."""
    _lifecycle_command(ctx, app_file, state_file, lambda m: m.start(module))


@cli.command()
@click.argument("module")
@click.option("--app", "app_file", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--state", "state_file", default="modules.json", show_default=True)
@click.option("--scenario", "scenario_file", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Workload to run before stopping (exercises the drain).")
@click.option("--at", "stop_at", type=int, default=0, help="Time to issue the stop.")
@click.pass_context
def stop(ctx, module: str, app_file: str | None, state_file: str, scenario_file: str | None, stop_at: int) -> None:
    """Stop a started module: drain live transactions behind barriers, then stop its containers."""

    def action(manager: DeploymentManager) -> None:
        if scenario_file is not None:
            scenario = _apply_seed(ctx, _load_scenario(scenario_file))
            manager.engine.load_scenario(scenario)
            manager.engine.run(until=stop_at)
        manager.stop(module)

    _lifecycle_command(ctx, app_file, state_file, action)


@cli.command()
@click.argument("module")
@click.option("--app", "app_file", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--state", "state_file", default="modules.json", show_default=True)
@click.pass_context
def undeploy(ctx, module: str, app_file: str | None, state_file: str) -> None:
    """Undeploy a stopped or distributed module."""
    _lifecycle_command(ctx, app_file, state_file, lambda m: m.undeploy(module))


@cli.command()
@click.argument("descriptor_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--change", type=click.Choice([k.value for k in ChangeKind]), required=True)
@click.option("--refs", default="", help="Comma-separated unchanged remote client ids.")
@click.option("--migration-available", is_flag=True, default=False)
@click.option("--state-shape-changed", is_flag=True, default=False)
@click.pass_context
def classify(ctx, descriptor_file: str, change: str, refs: str, migration_available: bool, state_shape_changed: bool) -> None:
    """Print the safety verdict for a descriptor under a change kind."""
    try:
        descriptor = parse_component(decode(_read(descriptor_file), "descriptor"))
    except QuiesceError as exc:
        _fail(f"{descriptor_file}: {exc}")
    verdict = classify_structural_safety(
        descriptor,
        ChangeKind(change),
        frozenset(r for r in refs.split(",") if r),
        migration_available=migration_available,
        state_shape_changed=state_shape_changed,
    )
    click.echo(json.dumps(verdict.to_json(), sort_keys=True))
    sys.exit(EXIT_OK)


def main() -> None:
    try:
        cli(standalone_mode=False)
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(EXIT_USAGE)
    except click.exceptions.Abort:
        sys.exit(EXIT_USAGE)


if __name__ == "__main__":
    main()
