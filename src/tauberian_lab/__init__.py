"""Numerical laboratory for quantified Tauberian decay bounds.

Models locally-BV integrators (jumps plus densities), their Laplace-Stieltjes
transforms, and the explicit decay machinery that turns a uniform ratio bound
plus an analytic extension into a computable rate; everything is checked
numerically on grids rather than assumed.
"""

__version__ = "0.1.0"

from .bv import (BVFunction, DensityPiece, NonFiniteIntegrandError, QuadratureError,
                 stieltjes_integral, weighted_partial_grid, weighted_tail_grid)
from .contour import (AgreementReport, CauchyReport, ContourBudgetError,
                      ContourEvaluation, ContourSpec, EtaShiftExtension, RationalExtension,
                      build_contour, cauchy_identity_report, contour_dump,
                      evaluate_contour, extension_agreement, fudge_factor, term_bounds)
from .dirichlet import (CoefficientSequence, DecayRow, DirichletInstance,
                        build_instance, partial_sum_decay)
from .growth import CutoffRule, GrowthBound, GrowthDomainError, m_log, m_log_inverse
from .problems import Problem, ProblemFormatError, load_problem
from .rates import (RateResult, bound_B, decay_rate, k_prime, r_opt, t_prime,
                    t_prime_second_term_clamped)
from .transform import (TauberianCertificate, TransformPoint, TruncationCapError,
                        improper_laplace)
from .vectors import vector_norm
from .verify import SupReport, check_admissibility, check_certificate, make_t_grid, make_x_grid

__all__ = [
    "__version__",
    "BVFunction", "DensityPiece", "NonFiniteIntegrandError", "QuadratureError",
    "stieltjes_integral", "weighted_partial_grid", "weighted_tail_grid",
    "AgreementReport", "CauchyReport", "ContourBudgetError", "ContourEvaluation",
    "ContourSpec", "EtaShiftExtension", "RationalExtension", "build_contour",
    "cauchy_identity_report", "contour_dump",
    "evaluate_contour", "extension_agreement", "fudge_factor", "term_bounds",
    "CoefficientSequence", "DecayRow", "DirichletInstance", "build_instance",
    "partial_sum_decay",
    "CutoffRule", "GrowthBound", "GrowthDomainError", "m_log", "m_log_inverse",
    "Problem", "ProblemFormatError", "load_problem",
    "RateResult", "bound_B", "decay_rate", "k_prime", "r_opt",
    "t_prime", "t_prime_second_term_clamped",
    "TauberianCertificate", "TransformPoint", "TruncationCapError", "improper_laplace",
    "vector_norm",
    "SupReport", "check_admissibility", "check_certificate", "make_t_grid", "make_x_grid",
]
