"""Attack-resilient vehicle-to-edge service mapping.

A numpy-based library plus a small CLI: optimal primary assignment of
vehicle demand to edge service instances, a load-balanced failover
split solved as a separable convex program at attack onset from the
previous unit's data, baseline failover policies, and a
discrete-time failure/recovery simulation with delay, load-factor, and
fairness metrics.
"""

__version__ = "0.1.0"

from .config import ExperimentConfig
from .errors import (
    ConcurrentAttackError,
    ConfigError,
    EdgefailError,
    InfeasibleError,
    IngestError,
    NoCandidateError,
    SaturationError,
    StructuralError,
)
from .metrics import (
    MetricsRecord,
    RunTable,
    average_elf,
    edge_load_factor,
    jain_fairness,
    queue_delay,
    service_delay,
)
from .mobility import (
    BoundingBox,
    GridMap,
    MobilityModel,
    derive_delay_matrix,
    derive_demand,
    generate_synthetic,
    ingest_trace,
)
from .model import (
    DelayModel,
    EdgeNode,
    NodeStatus,
    PlacementDecision,
    PrimaryMapping,
    RequestBatch,
    RequestStream,
    SecondaryMapping,
    ServiceRequest,
    ServiceType,
    SimPhase,
    placement_problems,
)
from .placement import place_services, recover_placement, reserve_backup
from .simulation import Simulation, StreamInputs, derive_inputs
from .solvers import (
    LbPsvmProblem,
    LbPsvmSolution,
    build_lb_psvm,
    lb_objective,
    oracle_lb_psvm,
    solve_lb_psvm,
    solve_primary_mapping,
    solve_psvm,
)
from .experiment import RunArtifacts, compare, run, simulate_policy

__all__ = [
    "BoundingBox",
    "ConcurrentAttackError",
    "ConfigError",
    "DelayModel",
    "EdgeNode",
    "EdgefailError",
    "ExperimentConfig",
    "GridMap",
    "InfeasibleError",
    "IngestError",
    "LbPsvmProblem",
    "LbPsvmSolution",
    "MetricsRecord",
    "MobilityModel",
    "NoCandidateError",
    "NodeStatus",
    "PlacementDecision",
    "PrimaryMapping",
    "RequestBatch",
    "RequestStream",
    "RunArtifacts",
    "RunTable",
    "SaturationError",
    "SecondaryMapping",
    "ServiceRequest",
    "ServiceType",
    "SimPhase",
    "Simulation",
    "StreamInputs",
    "StructuralError",
    "average_elf",
    "build_lb_psvm",
    "compare",
    "derive_delay_matrix",
    "derive_demand",
    "derive_inputs",
    "edge_load_factor",
    "generate_synthetic",
    "ingest_trace",
    "jain_fairness",
    "lb_objective",
    "oracle_lb_psvm",
    "place_services",
    "placement_problems",
    "queue_delay",
    "recover_placement",
    "reserve_backup",
    "run",
    "service_delay",
    "simulate_policy",
    "solve_lb_psvm",
    "solve_primary_mapping",
    "solve_psvm",
]
