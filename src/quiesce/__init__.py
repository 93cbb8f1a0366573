"""Controlled runtime redeployment of component-based applications.

A library, deterministic simulator, and CLI for quiescence-driven
redeployment: only the runtime-dependency-affected subset of a running
system is blocked, changes are applied per component-type safety rules,
and running transactions and unaffected sessions survive untouched.
"""

from .automata import (
    AutomatonCursor,
    CallLabel,
    ServiceEffectAutomaton,
    Transition,
)
from .depgraph import (
    ReconfigurationWindow,
    RuntimeDependencyGraph,
    StaticDependencyGraph,
    affected_set,
    build_runtime_graph,
    build_static_graph,
)
from .engine import Engine, EventLog, run
from .errors import (
    DrainTimeout,
    ParseError,
    ProtocolViolation,
    QuiesceError,
    Rejection,
    ValidationError,
)
from .lifecycle import DeploymentManager, ModuleArchive, ModuleState, parse_archive
from .manager import (
    CostModel,
    EntityMigration,
    QosChange,
    ReconfigurationPlan,
    ReconfigurationReport,
    ReconfigurationRequest,
    SafetyVerdict,
    TargetChange,
    Verdict,
    analyse,
    build_plan,
    classify_structural_safety,
    execute_plan,
    parse_request,
    run_scenario_with_request,
)
from .metrics import RunMetrics, compute_metrics
from .model import (
    ApplicationConfiguration,
    ChangeKind,
    ComponentDescriptor,
    ComponentKind,
    check_composition,
    diff_versions,
    load_application,
)
from .snapshot import RuntimeSnapshot, snapshot_from_json, snapshot_to_json
from .workload import WorkloadScenario, parse_scenario

__version__ = "0.1.0"
