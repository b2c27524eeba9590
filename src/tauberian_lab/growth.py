"""Growth bounds on the analytic extension and the cutoff rule for the x-range.

A growth bound M is a continuous nondecreasing function with M(s) >= 1 drawn
from a preset family.  The decay machinery needs the reweighted function

    m_log(a) = M(a) * (log a + log M(a) - 0.5 log(5C)),   a >= 1,

and its inverse on the branch where it increases.  m_log may be negative near
a = 1 when 5C > M(1)^2; it crosses zero at the unique a with a M(a) = sqrt(5C)
and increases from there, which is the branch the inverse uses.  m_log works
elementwise on arrays, and m_log_inverse takes a 1-d array of targets.  One
climb (`_climb`) finds the branch start, the radius where m_log reaches
max(m_log(1), 0), and every radius of the targets together: the rungs 2^k
bracket each target, and one bisection narrows every bracket at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .vectors import one_d

# each growth kind and the parameters it reads, c first
GROWTH_PARAMS = {"constant": ("c",), "affine": ("c",), "power": ("c", "alpha"),
                 "log": ("c", "beta"), "exp": ("c", "kappa")}
CUTOFF_KINDS = ("exp_t", "constant", "infinite")

_RESIDUAL_TOL = 1e-10  # relative residual of m_log_inverse's postcondition


class GrowthDomainError(ValueError):
    pass


@dataclass(frozen=True)
class GrowthBound:
    """Preset nondecreasing M with M >= 1 on s >= 0.

    c >= 1 and finite, and alpha, beta or kappa > 0 and finite where the kind
    reads it, make every preset >= c and nondecreasing; past float range it
    is inf from there on.
    """

    kind: str
    c: float
    alpha: float = 0.0
    beta: float = 0.0
    kappa: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in GROWTH_PARAMS:
            raise ValueError(f"unknown growth kind {self.kind!r}; "
                             f"expected one of {tuple(GROWTH_PARAMS)}")
        if not (self.c >= 1.0):
            raise ValueError(f"growth scale c must be >= 1 so that M >= 1, got {self.c}")
        if self.kind == "power" and not (self.alpha > 0):
            raise ValueError("power growth needs alpha > 0")
        if self.kind == "log" and not (self.beta > 0):
            raise ValueError("log growth needs beta > 0")
        if self.kind == "exp" and not (self.kappa > 0):
            raise ValueError("exp growth needs kappa > 0")
        for name in ("c", "alpha", "beta", "kappa"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"growth parameter {name} must be finite, got {value}")

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore"):
            out = self._values(s)
        return out if out.ndim else float(out)

    def _values(self, s: np.ndarray) -> np.ndarray:
        """M on a float array, under the caller's np.errstate."""
        if self.kind == "constant":
            return np.full_like(s, self.c)
        if self.kind == "affine":
            return self.c * (1.0 + s)
        if self.kind == "power":
            return self.c * np.power(1.0 + s, self.alpha)
        if self.kind == "log":
            return self.c * np.power(np.log(math.e + s), self.beta)
        return self.c * np.exp(self.kappa * s)


@dataclass(frozen=True)
class CutoffRule:
    """Upper limit R(t) of the admissible x-range; infinity is its own kind."""

    kind: str
    value: float = math.nan

    def __post_init__(self) -> None:
        if self.kind not in CUTOFF_KINDS:
            raise ValueError(f"unknown cutoff kind {self.kind!r}; expected one of {CUTOFF_KINDS}")
        if self.kind == "constant" and not (self.value >= 1.0 and math.isfinite(self.value)):
            raise ValueError("constant cutoff must be a finite value >= 1")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "exp_t":
            with np.errstate(over="ignore"):
                out = np.exp(t)
        elif self.kind == "constant":
            out = np.full_like(t, self.value)
        else:
            out = np.full_like(t, math.inf)
        return out if out.ndim else float(out)


def m_log(M: GrowthBound, C: float, a) -> float | np.ndarray:
    """M(a) * (log a + log M(a) - 0.5 log(5C)) for a >= 1."""
    a_arr = np.asarray(a, dtype=float)
    if np.any(a_arr < 1.0):
        raise GrowthDomainError("m_log is defined for a >= 1")
    if not C > 0:
        raise ValueError("C must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _m_log_values(M, a_arr, 0.5 * math.log(5.0 * C))
    return out if np.ndim(a) else float(out)


def _m_log_values(M: GrowthBound, a: np.ndarray, half_log: float) -> np.ndarray:
    """m_log on a float array a >= 1, half_log = 0.5 log(5C), without m_log's checks and
    under the caller's np.errstate; an infinite M(a) gives inf."""
    Ma = M._values(a)
    return np.where(np.isinf(Ma), math.inf, Ma * (np.log(a) + np.log(Ma) - half_log))


def _climb(M: GrowthBound, C: float, want: np.ndarray) -> np.ndarray:
    """Smallest a >= 1 with m_log(a) >= want, elementwise, for targets want >= 0.

    The rungs are 2^k, k = 1 .. 1023; each target takes the first rung where
    the running max of m_log reaches it, and the rung below (a = 1 below the
    first rung) closes its bracket.  All brackets are bisected together, each
    until its midpoint meets an end.  m_log has the sign of
    log a + log M(a) - 0.5 log(5C), which increases, so a target >= 0 is met
    only on the increasing branch.  A target no rung reaches (or nan) gives nan.
    """
    rungs = np.ldexp(1.0, np.arange(1, 1024))
    rung = np.searchsorted(np.maximum.accumulate(m_log(M, C, rungs)), want, side="left")
    out = np.full(want.shape, math.nan)
    live = np.flatnonzero(rung < rungs.size)
    lo = np.where(rung[live] > 0, rungs[rung[live] - 1], 1.0)
    hi = rungs[rung[live]]
    target = want[live]
    half_log = 0.5 * math.log(5.0 * C)
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size:
            mid = 0.5 * (lo + hi)
            moves = (mid > lo) & (mid < hi)
            out[live[~moves]] = mid[~moves]
            live, lo, hi, mid, target = live[moves], lo[moves], hi[moves], mid[moves], target[moves]
            low = _m_log_values(M, mid, half_log) < target
            lo = np.where(low, mid, lo)
            hi = np.where(low, hi, mid)
    return out


def at_index(exc: Exception, index) -> Exception:
    """Tag an error about one element of an array argument with its position."""
    exc.index = int(index)
    return exc


def m_log_inverse(M: GrowthBound, C: float, y) -> np.ndarray:
    """Inverse of m_log on its increasing branch, per target of a 1-d y.

    One climb serves the whole call: it takes every target, raised to the
    floor max(m_log(1), 0), and the floor itself, whose radius is the branch
    start; every target at or below m_log(branch start) takes the branch start.
    Postcondition on every element: |m_log(a) - y| <= _RESIDUAL_TOL * max(1, |y|).
    An error names the first failing target in array order, and its `index`
    attribute is that position.
    """
    y = one_d(y, float, "m_log_inverse")
    floor = max(m_log(M, C, 1.0), 0.0)
    climbed = _climb(M, C, np.maximum(np.append(y, floor), floor))
    bs = float(climbed[-1])
    m_min = float(m_log(M, C, bs))
    tol = _RESIDUAL_TOL * np.maximum(1.0, np.abs(y))
    failures = {}  # position in y -> error, for the first target of each kind

    below = np.flatnonzero(y < m_min - tol)
    if below.size:
        failures[below[0]] = GrowthDomainError(
            f"target {float(y[below[0]])!r} is below the branch minimum "
            f"m_log({bs!r}) = {m_min!r}")
    above = ~(y <= m_min)  # nan counts as above, so that it fails loudly
    a = np.where(above, climbed[:-1], bs)

    unbracketed = np.flatnonzero(above & np.isnan(a))
    if unbracketed.size:
        i = unbracketed[0]
        last = 2.0 ** 1023
        failures[i] = GrowthDomainError(
            f"no radius in float range reaches m_log = {float(y[i])!r}; "
            f"m_log({last:.4g}) = {m_log(M, C, last):.4g}")

    todo = np.flatnonzero(above & ~np.isnan(a))
    residual = np.abs(m_log(M, C, a[todo]) - y[todo])
    stalled = np.flatnonzero(residual > tol[todo])
    if stalled.size:
        j = stalled[0]
        failures[todo[j]] = ArithmeticError(
            f"m_log inversion stalled: residual {residual[j]:.3e} at a = {float(a[todo[j]])!r} "
            f"exceeds tolerance {tol[todo[j]]:.3e}")
    if failures:
        i = min(failures)
        raise at_index(failures[i], i)
    return a
