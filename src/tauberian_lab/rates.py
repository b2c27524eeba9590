"""Decay-rate engine: the three-term radius bound and its optimizer.

Every function takes the certificate (C, x0, T, R(t)) and the growth bound M.
For radius R >= 1 and time t > 0, the contour machinery yields

    bound_B(t, R) = 10 C / R + M(R) / (t R^3) + 2 R M(R)^2 e^{-t / (2 M(R))},

whose three terms ``bound_terms`` writes once for both this module and the
contour's term III.  The first and third terms balance exactly at
R_opt = m_log_inverse(t / 4), which is where the bound is used unless the
cutoff rule caps the radius first; the threshold T' and constant K' read
m_log(1).  r_opt and decay_rate take a 1-d grid of times: it is inverted in
one m_log_inverse call and gives one result per time, in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .growth import GrowthBound, at_index, m_log, m_log_inverse
from .transform import TauberianCertificate
from .vectors import one_d

BRANCH_OPT_INSIDE = "opt_inside"
BRANCH_CUTOFF_LIMITED = "cutoff_limited"
_BALANCE_TOL = 1e-6  # largest |log-gap| of r_opt's balanced terms


@dataclass(frozen=True)
class RateResult:
    t: float
    R_opt: float
    R_rule_t: float
    R_used: float
    bound: float
    branch: str
    rate_shape: float


def bound_terms(C: float, MR: float, t: float, R: float) -> tuple[float, float, float]:
    """The terms 10 C / R, M(R) / (t R^3) and 2 R M(R)^2 e^{-t/(2 M(R))}, with MR = M(R)."""
    return (10.0 * C / R, MR / (t * R ** 3), 2.0 * R * MR * MR * math.exp(-t / (2.0 * MR)))


def bound_B(C: float, MR: float, t: float, R: float) -> float:
    """The three-term bound at time t and radius R, with MR = M(R) (requires t > 0, R >= 1)."""
    if not t > 0:
        raise ValueError("bound_B needs t > 0")
    if not R >= 1:
        raise ValueError("bound_B needs R >= 1")
    first, second, third = bound_terms(C, MR, t, R)
    return first + second + third


def r_opt(cert: TauberianCertificate, M: GrowthBound, t) -> np.ndarray:
    """Radius balancing the first and third terms: m_log_inverse(t / 4), per time of a 1-d t.

    The balance 10 C / R = 2 R M(R)^2 e^{-t/(2M(R))} is re-verified on every
    element as a postcondition (in log space, so huge/tiny terms don't poison
    the check).  An error about one time carries its position as `index`.
    """
    t = one_d(t, float, "r_opt")
    bad = np.flatnonzero(~(t > 0))
    if bad.size:
        raise at_index(ValueError("r_opt needs t > 0"), bad[0])
    a = m_log_inverse(M, cert.C, t / 4.0)
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        raise at_index(ArithmeticError(
            f"optimal radius exceeds float range at t = {float(t[bad[0]])!r}"), bad[0])
    Ma = M(a)
    log_first = math.log(10.0 * cert.C) - np.log(a)
    log_third = math.log(2.0) + np.log(a) + 2.0 * np.log(Ma) - t / (2.0 * Ma)
    gap = np.abs(log_first - log_third)
    bad = np.flatnonzero(gap > _BALANCE_TOL)
    if bad.size:
        i = bad[0]
        raise at_index(ArithmeticError(
            f"balance postcondition failed at t = {float(t[i])!r}: |log-gap| = "
            f"{gap[i]:.3e}"), i)
    return a


def t_prime(cert: TauberianCertificate, M: GrowthBound) -> float:
    """Threshold time max{T, 4 m_log(1)}, the growth term clamped at 0."""
    return max(cert.T, 4.0 * max(m_log(M, cert.C, 1.0), 0.0))


def t_prime_second_term_clamped(cert: TauberianCertificate, M: GrowthBound) -> bool:
    """True when the growth term of the threshold was negative and clamped."""
    return m_log(M, cert.C, 1.0) < 0.0


def k_prime(cert: TauberianCertificate, M: GrowthBound) -> float | None:
    """Leading constant M(1) / m_log(1) = 1 / (log M(1) - log sqrt(5C)); None when undefined.

    Only meaningful when M(1) > sqrt(5C); otherwise the constant from this
    recipe is not positive and no number is reported.
    """
    m1 = m_log(M, cert.C, 1.0)
    return float(M(1.0)) / m1 if m1 > 0.0 else None


def decay_rate(cert: TauberianCertificate, M: GrowthBound, t) -> list[RateResult]:
    """Evaluate the decay bound at each time t > T' of a 1-d array.

    It gives one RateResult per time, in order; T', R_opt and M at the used
    radii are computed once for the grid.  branch is cutoff_limited exactly
    when R_opt exceeds the cutoff R_rule(t); the bound is then evaluated at
    the cutoff radius instead.  An error about one time carries its position
    as `index`.
    """
    t = one_d(t, float, "decay_rate")
    threshold = t_prime(cert, M)
    bad = np.flatnonzero(~(t > threshold))
    if bad.size:
        raise at_index(ValueError(
            f"decay_rate needs t > T' = {threshold!r}, got t = {float(t[bad[0]])!r}"),
            bad[0])
    R_opt, R_rule = r_opt(cert, M, t), cert.R_rule(t)
    limited = R_opt > R_rule
    R_used = np.where(limited, R_rule, R_opt)
    results = []
    for tk, R_o, R_r, cut, R_u, MR in zip(t.tolist(), R_opt.tolist(), R_rule.tolist(),
                                         limited.tolist(), R_used.tolist(), M(R_used).tolist()):
        branch = BRANCH_CUTOFF_LIMITED if cut else BRANCH_OPT_INSIDE
        bound = bound_B(cert.C, MR, tk, R_u)
        rate_shape = max(1.0 / R_o, 1.0 / R_r if math.isfinite(R_r) else 0.0)
        results.append(RateResult(t=tk, R_opt=R_o, R_rule_t=R_r, R_used=R_u, bound=bound,
                                  branch=branch, rate_shape=rate_shape))
    return results
