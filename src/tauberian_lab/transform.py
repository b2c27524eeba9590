"""Truncated and improper Laplace-Stieltjes transforms with certified tails.

The improper transform is never extrapolated blindly: a TauberianCertificate
supplies the constant C, the abscissa x0 it is certified at, and the cutoff
rule, and the truncation point is chosen so the certified tail bound

    || e^{x t} int_t^inf e^{-zs} dA(s) || <= C_eff (3 + |y|/x)

pushes the neglected tail below the requested error.  For x below x0 the
constant rescales to C_eff = C x0 / x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bv import BVFunction, Integrand, stieltjes_integral
from .growth import CutoffRule


@dataclass(frozen=True)
class TauberianCertificate:
    """Asserted bound on sup_t sup_x || x e^{-xt} int_0^t e^{xs} dA(s) ||.

    C: the bound; x0: smallest certified abscissa; T: time after which the
    bound holds; R_rule: per-time upper limit of the certified x-range.
    """

    C: float
    x0: float
    T: float = 0.0
    R_rule: CutoffRule = field(default_factory=CutoffRule.infinite)

    def __post_init__(self) -> None:
        if not (self.C > 0 and math.isfinite(self.C)):
            raise ValueError("certificate constant C must be positive and finite")
        if not (self.x0 > 0 and math.isfinite(self.x0)):
            raise ValueError("certificate abscissa x0 must be positive and finite")
        if not (self.T >= 0 and math.isfinite(self.T)):
            raise ValueError("certificate time T must be finite and >= 0")

    def effective_constant(self, x: float) -> float:
        """Certified constant at abscissa x; rescaled below x0."""
        if x <= 0:
            raise ValueError("effective constant needs x > 0")
        return self.C * max(1.0, self.x0 / x)


@dataclass(frozen=True)
class TransformPoint:
    z: complex
    value: np.ndarray  # (d,)
    truncation_bound: float
    t_star: float


class TruncationCapError(ValueError):
    """The truncation point needed for the target error exceeds the hard cap."""

    def __init__(self, cap: float, achievable_bound: float, target: float):
        self.cap = cap
        self.achievable_bound = achievable_bound
        self.target = target
        super().__init__(
            f"truncation point beyond hard cap t = {cap:g}; the certified tail bound "
            f"achievable at the cap is {achievable_bound:.3e} (target was {target:.3e})")


def finite_laplace(bv: BVFunction, z: complex, t: float,
                   quad_tol: float = 1e-10) -> np.ndarray:
    """int_0^t e^{-zs} dA(s) as a (d,) array; entire in z for each fixed t."""
    return stieltjes_integral(bv, Integrand.exponential(-complex(z)), t, quad_tol)


def improper_laplace(bv: BVFunction, z: complex, cert: TauberianCertificate,
                     target_err: float = 1e-8, quad_tol: float = 1e-12,
                     t_cap: float = 1e4) -> TransformPoint:
    """int_0^inf e^{-zs} dA(s) for Re z > 0, truncated with a certified bound."""
    z = complex(z)
    x, y = z.real, z.imag
    if x <= 0:
        raise ValueError(f"improper transform requires Re z > 0, got Re z = {x!r}; "
                         "values on the boundary come from an extension evaluator")
    if not target_err > 0:
        raise ValueError("target_err must be positive")
    amplitude = cert.effective_constant(x) * (3.0 + abs(y) / x)
    t_star = max(cert.T, math.log(amplitude / target_err) / x if amplitude > target_err else 0.0)
    if t_star > t_cap:
        achievable = amplitude * math.exp(-x * t_cap)
        raise TruncationCapError(t_cap, achievable, target_err)
    value = finite_laplace(bv, z, t_star, quad_tol)
    bound = amplitude * math.exp(-x * t_star)
    return TransformPoint(z=z, value=value, truncation_bound=bound, t_star=t_star)
