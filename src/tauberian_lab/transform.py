"""Truncated and improper Laplace-Stieltjes transforms with certified tails.

The improper transform is never extrapolated blindly: a TauberianCertificate
supplies the constant C, the abscissa x0 it is certified at, the time T and
the cutoff rule, and the truncation point t* >= T is chosen so the certified
tail bound

    || e^{x t} int_t^inf e^{-zs} dA(s) || <= c (3 + |y|/x),   z = x + iy, t >= T,

pushes the neglected tail below the requested error.  The bound follows from
sup_{s >= t} ||e^{-xs} int_0^s e^{xu} dA(u)|| <= c by one integration by parts
(Batty-Duyckaerts 2008), and ``verify`` checks it with the same ``tail_bound``.
The line constant is c = C / x: the ratio condition for x0 <= x <= R(t), and
the small-x bound (C / x0) (x0 / x) that ``verify`` reports for x < x0.  Above
a cutoff R that never reaches x, the x0 line gives c = (C / x0)(2 - x0 / x).

``improper_laplace`` takes a 1-d array of points, all in one call: it sums
int_[0, t*_i) e^{-z_i s} dA(s) with the block-Taylor jump kernel of ``bv``
(every weight has modulus <= 1 for Re z > 0 and s >= 0), so N jumps cost
O(N P) moments once, not one exponential per jump and point.  A truncation
point past _T_CAP is refused with TruncationCapError, which reports the tail
bound the cap achieves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bv import BVFunction, _exp_range_integral
from .growth import CutoffRule, at_index
from .vectors import one_d

_T_CAP = 1e4  # largest truncation point improper_laplace accepts


@dataclass(frozen=True)
class TauberianCertificate:
    """Asserted bound on sup_t sup_x || x e^{-xt} int_0^t e^{xs} dA(s) ||.

    C: the bound; x0: smallest certified abscissa; T: time after which the
    bound holds; R_rule: per-time upper limit of the certified x-range.
    """

    C: float
    x0: float
    T: float = 0.0
    R_rule: CutoffRule = field(default_factory=lambda: CutoffRule("infinite"))

    def __post_init__(self) -> None:
        if not (self.C > 0 and math.isfinite(self.C)):
            raise ValueError("certificate constant C must be positive and finite")
        if not (self.x0 > 0 and math.isfinite(self.x0)):
            raise ValueError("certificate abscissa x0 must be positive and finite")
        if not (self.T >= 0 and math.isfinite(self.T)):
            raise ValueError("certificate time T must be finite and >= 0")


@dataclass(frozen=True)
class TransformPoint:
    """The truncated transform at each z of an (n,) array; every field is an array."""

    z: np.ndarray  # (n,)
    value: np.ndarray  # (n, d)
    truncation_bound: np.ndarray  # (n,)
    t_star: np.ndarray  # (n,)


class TruncationCapError(ValueError):
    """The truncation point needed for the target error exceeds the hard cap."""

    def __init__(self, cap: float, achievable_bound: float, target: float):
        self.cap = cap
        self.achievable_bound = achievable_bound
        self.target = target
        super().__init__(
            f"truncation point beyond hard cap t = {cap:g}; the certified tail bound "
            f"achievable at the cap is {achievable_bound:.3e} (target was {target:.3e})")


def tail_bound(c: float, x: float, y: float) -> float:
    """c (3 + |y|/x): the certified bound on ||e^{xt} int_t^inf e^{-(x+iy)s} dA(s)||
    for line constant c."""
    return c * (3.0 + abs(y) / x)


def _truncation(cert: TauberianCertificate, z: complex, target_err: float) -> tuple[float, float]:
    """(t*, certified tail bound at t*) for one z with Re z > 0.

    Above x0 the line constant C / x needs x <= R(s) at every s >= t*.  R never
    decreases, so exp(t) certifies it from t = log x on; a constant R below x
    never does, and there c = (C / x0)(2 - x0 / x) takes its place: one
    integration by parts from the x0 line, at every t.
    """
    x, y = z.real, z.imag
    if x <= 0:
        raise ValueError(f"improper transform requires Re z > 0, got Re z = {x!r}; "
                         "values on the boundary come from an extension evaluator")
    if not target_err > 0:
        raise ValueError("target_err must be positive")
    c, t_from = cert.C / x, cert.T
    if x > cert.x0 and not cert.R_rule(t_from) >= x:
        if cert.R_rule.kind == "exp_t":
            t_from = math.log(x)
        else:
            c = cert.C / cert.x0 * (2.0 - cert.x0 / x)
    amplitude = tail_bound(c, x, y)
    t_star = max(t_from, math.log(amplitude / target_err) / x if amplitude > target_err else 0.0)
    if t_star > _T_CAP:
        achievable = amplitude * math.exp(-x * _T_CAP)
        raise TruncationCapError(_T_CAP, achievable, target_err)
    return t_star, amplitude * math.exp(-x * t_star)


def improper_laplace(bv: BVFunction, z, cert: TauberianCertificate,
                     target_err: float = 1e-8, quad_tol: float = 1e-12) -> TransformPoint:
    """int_0^inf e^{-zs} dA(s) for Re z > 0, truncated with a certified bound.

    z is a 1-d array of n points; the TransformPoint's fields are arrays,
    value (n, d).  Each point's t* is chosen on its own, and all points are
    summed in one call of the block-Taylor range integral over [0, t*_i).  An
    error names the first failing point in array order, and its `index`
    attribute is that position.
    """
    z = one_d(z, complex, "improper_laplace")
    t_star = np.empty(z.size)
    bound = np.empty(z.size)
    for i, zi in enumerate(z.tolist()):
        try:
            t_star[i], bound[i] = _truncation(cert, zi, target_err)
        except ValueError as exc:
            raise at_index(exc, i)
    value = _exp_range_integral(bv, z, 0.0, 0.0, t_star, quad_tol)
    return TransformPoint(z=z, value=value, truncation_bound=bound, t_star=t_star)
