"""Budget-constrained Katz-centrality network formation.

A library and CLI for the game in which each agent allocates a bounded
resource budget over permitted outgoing edges to maximize its own Katz
centrality: exact best responses, sequential and modified best-response
dynamics, exact computation of the unique equilibrium centralities,
Nash certification, and structural analysis of equilibrium networks.
"""

__version__ = "0.1.0"

from .analysis import (
    CheckResult,
    CondensationGraph,
    SccComponent,
    StructureReport,
    check_complete_topology,
    check_cycle_parity,
    check_hierarchy,
    check_scc_uniformity,
    export_condensation_dot,
    parity_classes,
    run_structure_checks,
    scc_condensation,
)
from .centrality import (
    WalkDecomposition,
    katz_solve,
    walk_decomposition,
)
from .dynamics import (
    BrdConfig,
    BrdStep,
    BrdTrace,
    Scheduler,
    run_brd,
    write_trace_allocations_json,
    write_trace_csv,
)
from .game import (
    BestResponseResult,
    EquilibriumCertificate,
    NashVerdict,
    best_response,
    equilibrium_centralities,
    improvement_gaps,
    is_nash,
    v_map,
)
from .instance import (
    AllocationProfile,
    FeasibilityError,
    GameInstance,
    KatzforgeError,
    ParseError,
    UnderlyingTopology,
    ValidationReport,
    generate_random_instance,
    instance_digest,
    is_feasible,
    parse_allocation,
    parse_instance,
    random_profile,
    serialize_allocation,
    serialize_instance,
    topology_from_edges,
    validate_instance,
)

__all__ = [
    "__version__",
    # instance
    "UnderlyingTopology",
    "GameInstance",
    "AllocationProfile",
    "ValidationReport",
    "KatzforgeError",
    "ParseError",
    "FeasibilityError",
    "validate_instance",
    "is_feasible",
    "parse_instance",
    "serialize_instance",
    "parse_allocation",
    "serialize_allocation",
    "generate_random_instance",
    "random_profile",
    "instance_digest",
    "topology_from_edges",
    # centrality
    "katz_solve",
    "walk_decomposition",
    "WalkDecomposition",
    # game
    "v_map",
    "improvement_gaps",
    "equilibrium_centralities",
    "EquilibriumCertificate",
    "best_response",
    "BestResponseResult",
    "is_nash",
    "NashVerdict",
    # dynamics
    "Scheduler",
    "BrdConfig",
    "BrdStep",
    "BrdTrace",
    "run_brd",
    "write_trace_csv",
    "write_trace_allocations_json",
    # analysis
    "scc_condensation",
    "SccComponent",
    "CondensationGraph",
    "CheckResult",
    "StructureReport",
    "check_complete_topology",
    "check_hierarchy",
    "check_scc_uniformity",
    "check_cycle_parity",
    "parity_classes",
    "run_structure_checks",
    "export_condensation_dot",
]
