"""Ricci flow on the unit disk with the curvature Neumann condition R_nu = 0.

A numerical laboratory for the boundary-aware entropy functionals of 2-d
Ricci flow: conformal metrics g = exp(u) g0 on a polar grid, an explicit
RK4 flow integrator with a ghost-ring boundary closure, Hamilton- and
Guo-type entropies, and an independent verification suite for every
monotonicity formula the package implements.
"""

from .errors import (
    AmplitudeError,
    BoundaryClosureError,
    CompatibilityError,
    ConfigurationError,
    DomainError,
    PositivityError,
    RicciDiskError,
    SolverError,
    UsageError,
)
from .grid import GridSpec, PolarGrid, TensorField, build_grid
from .geometry import (
    ConformalMetric,
    gauss_bonnet_residual,
    geodesic_curvature,
    make_metric,
    scalar_curvature,
)
from .elliptic import NeumannSolution, potential_f, solve_poisson_neumann
from .flow import (
    FlowSchedule,
    FlowState,
    FlowTrajectory,
    Termination,
    enforce_curvature_neumann,
    run,
)
from .initial_data import (
    CapParams,
    PerturbationParams,
    compatibility_residual,
    perturbed_cap,
    project_compatibility,
    spherical_cap,
)
from .entropy import (
    EntropyRecord,
    dE_dt_analytic,
    dE_dt_rhs,
    dW_dt_rhs,
    entropy_euler_form,
    hamilton_entropy,
    relation_residual,
    soliton_residual_L2,
    w_functional,
)
from .verify import ConvergenceReport, IdentityReport, convergence_study

__version__ = "0.1.0"

__all__ = [
    "AmplitudeError", "BoundaryClosureError", "CompatibilityError",
    "ConfigurationError", "DomainError", "PositivityError", "RicciDiskError",
    "SolverError", "UsageError",
    "GridSpec", "PolarGrid", "TensorField", "build_grid",
    "ConformalMetric", "gauss_bonnet_residual", "geodesic_curvature",
    "make_metric", "scalar_curvature",
    "NeumannSolution", "potential_f", "solve_poisson_neumann",
    "FlowSchedule", "FlowState", "FlowTrajectory", "Termination",
    "enforce_curvature_neumann", "run",
    "CapParams", "PerturbationParams", "compatibility_residual",
    "perturbed_cap", "project_compatibility", "spherical_cap",
    "EntropyRecord", "dE_dt_analytic", "dE_dt_rhs",
    "dW_dt_rhs", "entropy_euler_form", "hamilton_entropy",
    "relation_residual", "soliton_residual_L2", "w_functional",
    "ConvergenceReport", "IdentityReport", "convergence_study",
    "__version__",
]
