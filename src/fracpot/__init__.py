"""Numerical toolkit for (-Delta)^s u = |grad u|^q + omega on R^n.

Riesz potentials with free-space FFT convolution, Riesz capacities with the
admissibility ratio, the contracting Picard iteration with its constants
ledger, weak-form residuals, and norm/decay diagnostics.
"""

__version__ = "0.1.0"

from .capacity import (
    AdmissibilityReport,
    CapacityEstimate,
    ball_capacity_upper,
    ball_mask,
    estimate_ball_capacity,
    estimate_capacity,
    scale_measure_admissible,
    wolff_ratio,
)
from .core import (
    Grid,
    GridField,
    Measure,
    Parameters,
    VectorGridField,
)
from .diagnostics import (
    DecayFit,
    decay_fit,
    diagnostics_report,
    distribution_function,
    distribution_slope,
    marcinkiewicz_quasinorm,
    positivity_check,
)
from .errors import FracpotError
from .fraclap import (
    TestFunction,
    default_test_functions,
    weak_residual,
)
from .riesz import (
    gradient_comparison_constant,
    riesz_constant,
    riesz_gradient_measure,
    riesz_potential_field,
    riesz_potential_measure,
)
from .solver import (
    ConstantsLedger,
    SolveReport,
    constants_ledger,
    gradient_bound_check,
    picard_solve,
    representation_residual,
    run_checks,
    sandwich_check,
)
from .special import ball_volume, gamma, sphere_surface

__all__ = [
    "AdmissibilityReport",
    "CapacityEstimate",
    "ConstantsLedger",
    "DecayFit",
    "FracpotError",
    "Grid",
    "GridField",
    "Measure",
    "Parameters",
    "SolveReport",
    "TestFunction",
    "VectorGridField",
    "ball_capacity_upper",
    "ball_mask",
    "ball_volume",
    "constants_ledger",
    "decay_fit",
    "default_test_functions",
    "diagnostics_report",
    "distribution_function",
    "distribution_slope",
    "estimate_ball_capacity",
    "estimate_capacity",
    "gamma",
    "gradient_bound_check",
    "gradient_comparison_constant",
    "marcinkiewicz_quasinorm",
    "picard_solve",
    "positivity_check",
    "representation_residual",
    "riesz_constant",
    "riesz_gradient_measure",
    "riesz_potential_field",
    "riesz_potential_measure",
    "run_checks",
    "sandwich_check",
    "scale_measure_admissible",
    "sphere_surface",
    "weak_residual",
    "wolff_ratio",
]
