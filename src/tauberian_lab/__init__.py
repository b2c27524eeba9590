"""Numerical laboratory for quantified Tauberian decay bounds.

Models locally-BV integrators (jumps plus densities), their Laplace-Stieltjes
transforms, and the explicit decay machinery that turns a uniform ratio bound
plus an analytic extension into a computable rate; everything is checked
numerically on grids rather than assumed.
"""

__version__ = "0.1.0"

from .bv import (BVFunction, DensityPiece, Integrand, NonFiniteIntegrandError,
                 stieltjes_integral, weighted_partial, weighted_partial_grid,
                 weighted_tail_grid)
from .contour import (CauchyReport, ContourBudgetError, ContourEvaluation,
                      ContourSpec, EtaShiftExtension, RationalExtension,
                      build_contour, cauchy_identity_report, cauchy_residual,
                      contour_dump, evaluate_contour, extension_agreement,
                      fudge_factor, term_bounds)
from .dirichlet import (CoefficientSequence, DecayRow, DirichletInstance,
                        build_instance, calibrate_affine_growth,
                        check_admissibility, partial_sum_decay)
from .growth import (CutoffRule, GrowthBound, GrowthDomainError, branch_start,
                     m_log, m_log_inverse)
from .problems import (BoundedDensityInstance, Problem, ProblemFormatError,
                       bounded_density_instance, load_problem)
from .rates import (RateInputs, RateResult, bound_B, decay_rate, k_prime,
                    r_opt, t_prime, t_prime_second_term_clamped)
from .transform import (TauberianCertificate, TransformPoint,
                        TruncationCapError, finite_laplace, improper_laplace)
from .vectors import vector_norm
from .verify import (GridSpec, SupReport, check_line_bound, check_small_x_bound,
                     check_tail_bound, check_tauberian, delayed_step,
                     delayed_step_ratio, delayed_step_restart, make_t_grid,
                     make_x_grid)

__all__ = [
    "__version__",
    "BVFunction", "DensityPiece", "Integrand", "NonFiniteIntegrandError",
    "stieltjes_integral", "weighted_partial", "weighted_partial_grid",
    "weighted_tail_grid",
    "CauchyReport", "ContourBudgetError", "ContourEvaluation", "ContourSpec",
    "EtaShiftExtension", "RationalExtension", "build_contour",
    "cauchy_identity_report", "cauchy_residual", "contour_dump",
    "evaluate_contour", "extension_agreement", "fudge_factor", "term_bounds",
    "BoundedDensityInstance", "CoefficientSequence", "DecayRow",
    "DirichletInstance", "bounded_density_instance", "build_instance",
    "calibrate_affine_growth", "check_admissibility", "partial_sum_decay",
    "CutoffRule", "GrowthBound", "GrowthDomainError", "branch_start",
    "m_log", "m_log_inverse",
    "Problem", "ProblemFormatError", "load_problem",
    "RateInputs", "RateResult", "bound_B", "decay_rate", "k_prime", "r_opt",
    "t_prime", "t_prime_second_term_clamped",
    "TauberianCertificate", "TransformPoint", "TruncationCapError",
    "finite_laplace", "improper_laplace",
    "vector_norm",
    "GridSpec", "SupReport", "check_line_bound", "check_small_x_bound",
    "check_tail_bound", "check_tauberian", "delayed_step", "delayed_step_ratio",
    "delayed_step_restart", "make_t_grid", "make_x_grid",
]
