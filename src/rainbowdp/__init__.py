"""Optimal (epsilon,delta)-differentially-private mechanisms on rainbow
graphs under homogeneous boundary conditions, with verification oracles
and a reproducible CLI."""

from .core import (
    DEFAULT_TOL,
    ColorSpace,
    PrivacyBudget,
    Rainbow,
    SimplexVector,
    dominates,
    is_close,
    prefix_sums,
    subset_excess,
)
from .graph import (
    BoundaryGraph,
    RainbowGraph,
    UnconstrainedRegion,
    boundary_distances,
    build_boundary_graph,
    decompose_regions,
)
from .mechanism import (
    BoundaryCondition,
    DpReport,
    DpViolation,
    InvalidBoundary,
    Mechanism,
    MissingRainbow,
    build_trajectory,
    closed_form_prefix,
    is_boundary_homogeneous,
    line_mechanism,
    mechanism_dominates,
    optimal_mechanism,
    t_step,
    tau_profile,
    to_preference_order,
    utility_eval,
    validate_boundary_condition,
    verify_dp,
)
from .oracle import (
    Counterexample,
    dominance_falsify,
    homogenized_pentagon,
    is_close_bruteforce,
    no_optimal_demo,
    pentagon_graph,
    sample_close,
)

__version__ = "0.1.0"
