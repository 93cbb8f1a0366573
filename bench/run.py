"""quiesce benchmark: redeploy workloads, end-to-end metrics, and a traced layer run.

Run from the repository root:

    python3 bench/run.py --workload fanout-walk --seed 1 --seconds 40 --trace 0

The seed generates the workload's application, scenario and request
documents (bench/workloads.py); the library receives only those documents,
through the calls `quiesce redeploy` makes (bench/jobs.py).  The same job
is repeated for ``--seconds`` (no job is started that would end past
them) and timings are reported as medians over the jobs.  Every job's event log and metrics must be
byte-identical, and the first job's outputs must pass every check in
bench/checks.py.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced jobs and prints the per-layer table (bench/tracing.py)
and the tracing overhead instead.  Either way the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("fanout-walk", "msg-burst", "rolling-redeploy")

# the layer each workload was chosen to load, judged by traced self time
EXPECTED_TOP = {
    "fanout-walk": ("model.ApplicationConfiguration.provider_of",),
    "msg-burst": ("engine.Engine.run",),
    "rolling-redeploy": ("depgraph.", "manager."),
}

# layers that only one of the two redeploy paths calls: their times would
# read 0 on the other workloads, so only their call counts are metrics
PATH_ONLY = {
    "manager.parse_request",
    "manager.run_scenario_with_request",
    "manager.execute_plan",
    "lifecycle.parse_archive",
    "lifecycle.DeploymentManager.redeploy",
}


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def evaluate(result, docs) -> dict:
    """Checks, simulated disruption figures and layer counts of one job's outputs."""
    from quiesce import depgraph, metrics
    from checks import check_affected, check_log, count_ops, log_counts

    events = result.engine.log.events
    static = depgraph.build_static_graph(result.engine.config)
    depths = dict(result.engine.snapshot().queue_depths)
    problems = check_log(events, depths) + check_affected(result.reports, docs, static)
    attempted, failed, why = count_ops(events, docs, result.reports)
    run_metrics = metrics.compute_metrics(events)
    closure = sum(
        len(static.ancestors_of(t) | t)
        for t in (frozenset(x.component for x in p.request.targets) for p in result.plans)
    )
    counts = log_counts(events)
    counts["manager.plan_steps"] = sum(len(p.steps) for p in result.plans)
    counts["depgraph.affected_over_closure"] = sum(len(p.affected) for p in result.plans) / max(closure, 1)
    return {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "why": why,
        "sim": {
            "held_calls": run_metrics.held_count,
            "held_wait_max_units": run_metrics.held_max_wait,
            "downtime_units": sum(run_metrics.downtime.values()),
            "affected_components": sum(len(r.affected) for r in result.reports),
        },
        "counts": counts,
    }


def run_jobs(docs, seconds: float, trace: bool, out: Path):
    """Repeat the job for ``seconds`` (at least twice); with ``trace``, every other job is traced."""
    from jobs import Marks, run_job
    from tracing import Tracer

    marks = Marks()
    tracer = Tracer()
    tracer.measure["depgraph.build_runtime_graph"] = lambda graph: len(graph.edges)
    marks.install()
    plain, traced, tables, first, digests = [], [], [], None, None
    runtime_edges = 0
    start = time.perf_counter()
    last = 0.0  # how long the previous job took, checks included
    try:
        # stop before a job that would end past the deadline
        while (
            len(plain) + len(traced) < 2
            or (trace and not traced)
            or time.perf_counter() - start + last <= seconds
        ):
            job_start = time.perf_counter()
            with_trace = trace and len(plain) > len(traced)
            gc.collect()
            if with_trace:
                tracer.clear()
                tracer.install()
                try:
                    result = run_job(docs, out, marks, tracer.set_context)
                finally:
                    tracer.uninstall()
                tables.append(tracer.table())
                runtime_edges = tracer.counts["depgraph.build_runtime_graph"]
            else:
                result = run_job(docs, out, marks)
            job = {
                "setup_s": result.setup_s,
                "sim_s": result.sim_s,
                "output_s": result.output_s,
                "job_s": result.job_s,
                "plan_s": result.plan_s,
                "invocations": sum(1 for e in result.engine.log.events if e.kind == "InvocationStart"),
            }
            job_digests = (_sha(result.events_text), _sha(result.metrics_text))
            if first is None:
                first, digests = evaluate(result, docs), job_digests
            elif job_digests != digests:
                first["problems"].append(f"job {len(plain) + len(traced) + 1}: outputs differ from job 1")
            (traced if with_trace else plain).append(job)
            del result
            last = time.perf_counter() - job_start
    finally:
        marks.uninstall()
    if trace:
        tracer.write(out / "spans.jsonl")
        first["counts"]["depgraph.runtime_edges"] = runtime_edges
    return plain, traced, tables, first, digests


def end_to_end(plain: list[dict], first: dict) -> dict:
    plans_ms = [s * 1000 for job in plain for s in job["plan_s"]]
    values = {
        "job_s": (statistics.median([j["job_s"] for j in plain]), "s"),
        "setup_s": (statistics.median([j["setup_s"] for j in plain]), "s"),
        "sim_invocations_per_s": (statistics.median([j["invocations"] / j["sim_s"] for j in plain]), "1/s"),
        "plan_ms_p50": (statistics.median(plans_ms), "ms"),
        "plan_ms_p90": (_quantile(plans_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, value in first["sim"].items():
        values[name] = (value, "units" if name.endswith("_units") else "count")  # units: simulated time
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def per_layer(plain: list[dict], traced: list[dict], tables: list[dict], first: dict) -> dict:
    out = {}
    for name in tables[0]:
        out[f"{name}.calls"] = {"value": tables[0][name]["calls"], "unit": "count"}
        if name in PATH_ONLY:
            continue
        for key in ("total_s", "self_s"):
            out[f"{name}.{key}"] = {"value": statistics.median([t[name][key] for t in tables]), "unit": "s"}
    for name, value in sorted(first["counts"].items()):
        out[name] = {"value": value, "unit": "ratio" if name.endswith("_over_closure") else "count"}
    overhead = statistics.median([j["job_s"] for j in traced]) - statistics.median([j["job_s"] for j in plain])
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", default=None, help="JSON object overriding the workload sizes")
    parser.add_argument("--out", default=str(ROOT / ".bench_out"), help="directory for the job outputs")
    args = parser.parse_args(argv)

    load_at_start = os.getloadavg()
    if not (SRC / "quiesce" / "__init__.py").is_file():
        return _fail(f"library sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from workloads import DEFAULT_SIZES, generate

    sizes = dict(DEFAULT_SIZES[args.workload], **json.loads(args.sizes or "{}"))
    docs = generate(args.workload, args.seed, sizes)
    out = Path(args.out) / args.workload
    out.mkdir(parents=True, exist_ok=True)
    plain, traced, tables, first, digests = run_jobs(docs, args.seconds, bool(args.trace), out)

    metrics = per_layer(plain, traced, tables, first) if args.trace else end_to_end(plain, first)
    correct = not first["problems"] and first["failed"] == 0
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": [round(x, 2) for x in load_at_start],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
    }
    print(f"quiesce benchmark: {json.dumps(env, sort_keys=True)}")
    print(f"jobs: {len(plain)} untraced, {len(traced)} traced; plan samples: {sum(len(j['plan_s']) for j in plain)}")
    for key in ("job_s", "setup_s", "sim_s", "output_s"):
        values = [j[key] for j in plain]
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        print(f"untraced {key}: q1 {q1:.4f} median {q2:.4f} q3 {q3:.4f} over {len(values)} jobs")
    print(f"digest events.jsonl sha256={digests[0]}")
    print(f"digest metrics.json sha256={digests[1]}")
    print(f"ops: attempted={first['attempted']} failed={first['failed']}")
    for why in first["why"]:
        print(f"  failed: {why}")
    for problem in first["problems"]:
        print(f"  check failed: {problem}")
    print(f"checks: {'all passed' if not first['problems'] else 'FAILED'}")
    if args.trace:
        _print_layers(args.workload, tables, metrics)
    for name, m in metrics.items():
        print(f"{name:60s} {m['value']!r:>24} {m['unit']}")
    result = {"correct": correct, "attempted": first["attempted"], "failed": first["failed"], "metrics": metrics}
    (out / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "digests": digests, "jobs": plain + traced, **result}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0 if correct else 1


def _print_layers(workload: str, tables: list[dict], metrics: dict) -> None:
    """The per-layer table, every layer with times, sorted by self time."""
    rows = {
        name: {k: statistics.median([t[name][k] for t in tables]) for k in ("calls", "total_s", "self_s")}
        for name in tables[0]
    }
    print(f"{'layer':48s} {'calls':>10} {'total_s':>10} {'self_s':>10}")
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:48s} {row['calls']:>10.0f} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    top = max(rows, key=lambda name: rows[name]["self_s"])
    expected = EXPECTED_TOP[workload]
    verdict = "as chosen" if top.startswith(expected) else f"not the chosen {' or '.join(expected)}"
    print(f"top self-time layer: {top} ({verdict})")
    print(f"tracing overhead: {metrics['trace.overhead_s']['value']!r} s per job")


if __name__ == "__main__":
    sys.exit(main())
