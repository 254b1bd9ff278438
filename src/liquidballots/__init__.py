"""Resolving fine-grained delegations over cumulative ballots.

Voters split a unit of voting weight across candidate bundles and may
delegate each bundle to another voter.  The library ships the four
resolution notions (exact proportionality, its thresholded and
threshold-interpolated variants, and weighted-confidence combination),
fixed-point solvers with residual diagnostics, an exhaustive grid
oracle, JSON instance and solution formats, a polynomial constraint
exporter, and randomized searches for structural counterexamples.
"""

from .counterexamples import (
    SEARCH_KINDS,
    SearchFinding,
    check_contraction_violation,
    check_nonuniqueness,
    check_pseudomono_violation,
    load_finding,
    random_feasible_point,
    random_wcc_instance,
    save_finding,
    search_violation,
)
from .fixtures import (
    CROSSED_EPTI_SOLUTION,
    EPTI_SENSITIVITY_SOLUTIONS,
    SENSITIVITY_SUPPORTS,
    WCC_SENSITIVITY_SOLUTIONS,
    crossed_thresholds,
    example_ep,
    high_confidence,
)
from .io import (
    INSTANCE_SCHEMA_VERSION,
    SOLUTION_SCHEMA_VERSION,
    InstanceSyntaxError,
    instance_from_doc,
    instance_to_doc,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
    solution_to_doc,
    trace_csv,
)
from .model import (
    BUDGET_TOL,
    Bundle,
    ElectionInstance,
    InvalidInstanceError,
    Notion,
    ValidationReport,
    Violation,
    is_feasible,
    project_simplex,
    project_to_feasible,
    validate_instance,
)
from .qcqp import ConstraintExport, export_qcqp
from .response import (
    RegretReport,
    best_response,
    bundle_response,
    regret,
    residual_norms,
)
from .solvers import (
    STRATEGIES,
    GridSearchResult,
    SolveReport,
    SolverConfig,
    grid_oracle,
    initial_point,
    residual_descent,
    simple_iteration,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BUDGET_TOL",
    "Bundle",
    "CROSSED_EPTI_SOLUTION",
    "ConstraintExport",
    "ElectionInstance",
    "EPTI_SENSITIVITY_SOLUTIONS",
    "GridSearchResult",
    "INSTANCE_SCHEMA_VERSION",
    "InstanceSyntaxError",
    "InvalidInstanceError",
    "Notion",
    "RegretReport",
    "SEARCH_KINDS",
    "SENSITIVITY_SUPPORTS",
    "SOLUTION_SCHEMA_VERSION",
    "STRATEGIES",
    "SearchFinding",
    "SolveReport",
    "SolverConfig",
    "ValidationReport",
    "Violation",
    "WCC_SENSITIVITY_SOLUTIONS",
    "best_response",
    "bundle_response",
    "check_contraction_violation",
    "check_nonuniqueness",
    "check_pseudomono_violation",
    "crossed_thresholds",
    "example_ep",
    "export_qcqp",
    "grid_oracle",
    "high_confidence",
    "initial_point",
    "instance_from_doc",
    "instance_to_doc",
    "is_feasible",
    "load_finding",
    "parse_instance",
    "parse_solution",
    "project_simplex",
    "project_to_feasible",
    "random_feasible_point",
    "random_wcc_instance",
    "regret",
    "residual_descent",
    "residual_norms",
    "save_finding",
    "search_violation",
    "serialize_instance",
    "serialize_solution",
    "simple_iteration",
    "solution_to_doc",
    "solve",
    "trace_csv",
    "validate_instance",
]
