"""Weighted Bergman kernels on the unit disc for radial weights comparable to 1.

Moments and kernel coefficients with certified accuracy, zero existence
certificates (affine-dominance and argument-principle routes), coefficient
and Schur-test diagnostics for L^p boundedness, and a discretized
projection with exact monomial orthogonality on its grid.
"""

__version__ = "0.1.0"

from .kernel import KernelValue, ToleranceError, diagonal_poly, kernel_eval
from .regularity import (CoefficientConditions, SchurIntegral, SchurReport,
                         coefficient_conditions, log_beta, schur_bound_check, schur_integral,
                         schur_integral_quadrature)
from .projector import (DiscreteProjector, ProbeResult, SplitWitness, TestFunction,
                        build_projector, cs_split_witness, default_family, lp_norm, lp_probe,
                        project)
from .weights import (ConstantWeight, DiracAugmentedWeight, MomentTable, QuadratureError,
                      RadialWeight, SampledWeight, StepWeight, WeightError,
                      alphas_closed_form, load_weight, moment_quadrature, moment_table,
                      weight_from_json, weight_to_json)
from .zeros import (DiracZeroResult, InflationCheck, RoucheCertificate, SecondDifferenceSummary,
                    SweepCell, ZeroReport, auto_rouche_epsilon, count_zeros_winding,
                    dirac_kernel_value, dirac_zero_threshold, inflation_check, mollify_weight,
                    reinhardt_monomial_norm, rouche_certificate, second_difference_bound,
                    sweep_step_weights)

__all__ = [
    "__version__",
    "ConstantWeight", "StepWeight", "SampledWeight", "DiracAugmentedWeight", "RadialWeight",
    "MomentTable", "WeightError", "QuadratureError",
    "alphas_closed_form", "moment_quadrature", "moment_table",
    "weight_from_json", "weight_to_json", "load_weight",
    "KernelValue", "ToleranceError", "kernel_eval", "diagonal_poly",
    "SecondDifferenceSummary", "RoucheCertificate", "ZeroReport", "SweepCell",
    "DiracZeroResult", "InflationCheck",
    "second_difference_bound", "rouche_certificate", "auto_rouche_epsilon",
    "count_zeros_winding", "sweep_step_weights", "mollify_weight",
    "dirac_zero_threshold", "dirac_kernel_value", "inflation_check", "reinhardt_monomial_norm",
    "CoefficientConditions", "SchurIntegral", "SchurReport", "coefficient_conditions", "log_beta",
    "schur_integral", "schur_integral_quadrature", "schur_bound_check",
    "DiscreteProjector", "ProbeResult", "SplitWitness", "TestFunction",
    "build_projector", "project", "lp_norm", "lp_probe", "cs_split_witness", "default_family",
]
