"""Numerical laboratory for four superintegrable Koenigs-type metric families.

Five coordinate charts (trig, h0, hplus, hminus, affine) share one
Hamiltonian kernel; the package classifies geodesic regimes, integrates
the flow with conserved-quantity diagnostics, computes action variables
two independent ways, solves the radial quantum problem, and expands the
oscillator-type eigenbasis over the Cartesian one.
"""

from .actions import ActionVars, action_quadrature, action_variables, energy_from_J
from .errors import (
    BoundaryReached,
    ChartError,
    ConstantCurvature,
    ConvergenceFailure,
    DomainError,
    KoenigsError,
    NoBoundState,
    NoGlobalStructure,
    NoMotion,
    NotBounded,
    NotClosedRegime,
    OutOfDomain,
    QuadratureFailure,
    StepFailure,
)
from .flow import Trajectory, closure_test, drift_report, integrate
from .geodesics import (
    GeodesicRegime,
    classify,
    curve_residual,
    radial_momentum_sq,
    start_point,
)
from .invariants import ConservedSet, conserved_set, poisson_bracket, second_integrals
from .models import (
    FAMILIES,
    Model,
    PhasePoint,
    embed,
    generators,
    hamiltonian,
    make_model,
    make_point,
    metric_components,
    scalar_curvature,
)
from .quantum import (
    Level,
    count_bound_levels,
    eigenfunction,
    schrodinger_residual,
    shoot_eigenvalue,
    spectrum,
)
from .specfun import basis_coefficients, coefficient_oracle
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "ActionVars",
    "BoundaryReached",
    "ChartError",
    "ConservedSet",
    "ConstantCurvature",
    "ConvergenceFailure",
    "DomainError",
    "FAMILIES",
    "GeodesicRegime",
    "KoenigsError",
    "Level",
    "Model",
    "NoBoundState",
    "NoGlobalStructure",
    "NoMotion",
    "NotBounded",
    "NotClosedRegime",
    "OutOfDomain",
    "PhasePoint",
    "QuadratureFailure",
    "StepFailure",
    "Trajectory",
    "action_quadrature",
    "action_variables",
    "basis_coefficients",
    "classify",
    "closure_test",
    "coefficient_oracle",
    "conserved_set",
    "count_bound_levels",
    "curve_residual",
    "drift_report",
    "eigenfunction",
    "embed",
    "energy_from_J",
    "generators",
    "hamiltonian",
    "integrate",
    "make_model",
    "make_point",
    "metric_components",
    "poisson_bracket",
    "radial_momentum_sq",
    "run_suite",
    "scalar_curvature",
    "schrodinger_residual",
    "second_integrals",
    "shoot_eigenvalue",
    "spectrum",
    "start_point",
]
