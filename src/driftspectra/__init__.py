"""Numerical laboratory for Dirichlet drift Laplacians on geodesic balls.

Modules
-------
geometry     warping profiles, radial drifts, model balls, pointwise fields
radial       1-D eigenproblems on model balls and spectrum assembly
disk         2-D disk operator, principal pair and its adjoint
bounds       Barta bracket, weighted Rayleigh quotient, integral min-max bound
compare      comparison-statement harness, Riccati rigidity, derivative checks
cli          command-line front end with parameter sweeps

The 1-D layers need only numpy.  The 2-D names (`disk`, `bounds`) are
re-exported lazily, so scipy.sparse loads on first use of one of them.
"""

import importlib

from .geometry import (DriftProfile, ModelBall, WarpingFunction, custom_warping,
                       drift_divergence, drift_from_rate,
                       euclidean_ball, extra_condition_lhs, make_space_form,
                       polynomial_drift, radial_sectional_curvature,
                       space_form_ball, weight_p, zero_drift)
from .radial import (RadialMode, SpectrumTable, assemble_spectrum,
                     frobenius_exponent, principal_eigenpair, solve_radial_modes,
                     sphere_eigenvalue, weighted_inner_product)
from .compare import (AnalyticDisk, ComparisonCase, ComparisonVerdict,
                      builtin_corpus, derivative_lambda_eps, eigenvalue_sandwich,
                      riccati_uniqueness, run_case, run_corpus, verify_divergence_comparison)

_LAZY = {
    "disk": ("DiskProblem", "EigenPair2D", "PolarGrid", "adjoint_principal",
             "assemble_operator", "build_model_disk", "principal_eigenpair_2d",
             "solve_principal"),
    "bounds": ("BartaBracket", "HollandReport", "barta_bracket", "holland_bound",
               "q_functional", "rayleigh_minimize", "rayleigh_quotient",
               "solve_G_V", "solve_w_u"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY_NAMES[name]}", __name__), name)


__version__ = "0.1.0"
