"""Contour verification of the residue identity behind the decay bound.

The closed contour is a right half-circle of radius R joined to a left
rectangle-style path at abscissa a = -1/(2 M(R)); the analytic weight is

    g(z) = e^{tz} (1 + z^2 / R^2)^2 / z,

whose double zero at z = +-iR kills the junctions.  The identity under test:

    A(t) - f(0) = (1/2 pi i) [ int_G1 (f_t - f) g dz
                             + int_G1_reflected f_t g dz
                             - int_G2 f g dz ].

Numerical note: (f_t - f)(z) e^{tz} is evaluated as the tail integral
-int_t^inf e^{-z(s-t)} dA(s), never by subtracting two O(e^{tR})-sized
transforms (which would lose every significant digit by t R ~ 40); the two
expressions are equal by definition of the improper transform.  Likewise
f_t(z) e^{tz} on the reflected arc is int_0^t e^{z(t-s)} dA(s), whose
integrand never exceeds 1 in modulus there.  Both are the same integral of
e^{-z(s-t)} dA(s) split at t, so one routine in ``bv`` computes them: over
[t, inf) on gamma1 (Re z >= 0, ``exp_tail_integral``) and over [0, t) on
the reflected arc (Re z <= 0, ``exp_partial_integral``).

Each (t, R) is evaluated once: ``evaluate_contour`` builds the contour and
stores, per piece, the analytic weight g and the node values F of the
integrand g F.  Three reductions read that one ``ContourEvaluation``:
``cauchy_identity_report`` sums (dz g) @ F, ``term_bounds`` sums
|dz| |g| ||F|| per term, and ``contour_dump`` lists ||F|| |g| per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .bv import (BVFunction, exp_partial_integral, exp_tail_integral,
                 gauss_legendre_panels, jump_sum_remainder)
from .growth import GrowthBound
from .oracles import eta
from .transform import TauberianCertificate, improper_laplace
from .vectors import vector_norm

_PHASE_PER_PANEL = 1.2  # radians of integrand phase per 16-node panel


class ContourBudgetError(ValueError):
    def __init__(self, required_nodes: int, max_nodes: int):
        self.required_nodes = required_nodes
        self.max_nodes = max_nodes
        super().__init__(
            f"contour quadrature needs ~{required_nodes} nodes, over the budget of "
            f"{max_nodes}; lower t*R/density or raise max_nodes")


def fudge_factor(z, R: float):
    """(1 + z^2/R^2)^2; on |z| = R its modulus is (2|Re z|/R)^2."""
    z = np.asarray(z, dtype=complex)
    w = (1.0 + (z / R) ** 2) ** 2
    return w if w.ndim else complex(w)


@dataclass(frozen=True)
class QuadPiece:
    """One smooth piece with Gauss-Legendre nodes baked in."""

    name: str
    params: np.ndarray       # per-node parameter (angle on arcs, length on segments)
    nodes: np.ndarray        # z per node
    dz_weights: np.ndarray   # weight * z'(u): complex line element
    abs_weights: np.ndarray  # weight * |z'(u)|: arc-length element


def _arc_piece(name: str, R: float, th0: float, th1: float, rate: float,
               density: float) -> QuadPiece:
    # rate = phase change of the integrand per unit arc length
    length = abs(th1 - th0) * R
    panels = max(4, int(math.ceil(length * rate * density / _PHASE_PER_PANEL)))
    th, w = gauss_legendre_panels(th0, th1, panels)
    z = R * np.exp(1j * th)
    dz = 1j * z  # dz/dtheta
    return QuadPiece(name, th, z, w * dz, w * np.abs(dz))


def _segment_piece(name: str, za: complex, zb: complex, rate: float,
                   density: float) -> QuadPiece:
    length = abs(zb - za)
    panels = max(2, int(math.ceil(length * rate * density / _PHASE_PER_PANEL)))
    u, w = gauss_legendre_panels(0.0, 1.0, panels)
    z = za + u * (zb - za)
    dz = zb - za
    return QuadPiece(name, u * length, z, w * dz, w * np.full_like(u, abs(dz)))


@dataclass(frozen=True)
class ContourSpec:
    R: float
    left_abscissa: float
    gamma1: QuadPiece
    gamma1_reflected: QuadPiece
    gamma2: tuple[QuadPiece, ...]

    @property
    def total_nodes(self) -> int:
        n = self.gamma1.params.size + self.gamma1_reflected.params.size
        return int(n + sum(p.params.size for p in self.gamma2))


def build_contour(M: GrowthBound, R: float, t: float, density: float = 1.0,
                  max_nodes: int = 400_000) -> ContourSpec:
    """Half-circle pair plus the three-segment left path at -1/(2 M(R)).

    Panel counts scale with the e^{tz} oscillation (t per unit length, t*R
    per radian); the long vertical segment is split at the axis and at
    |Im z| = 1 so refinement lands where 1/z varies fastest.
    """
    if not R >= 1.0:
        raise ValueError("contour radius must be >= 1")
    if not t > 0:
        raise ValueError("contour verification needs t > 0")
    if density <= 0:
        raise ValueError("density multiplier must be positive")
    a = -1.0 / (2.0 * float(M(R)))
    arc_rate = t + 4.0 / R + 2.0
    seg_rate_v = t + 2.0 * float(M(R)) + 2.0
    seg_rate_h = t + 2.0 + 1.0 / R

    # rough node estimate before building (same formulas as the builders)
    est = (math.pi * R * arc_rate * 2 + 2 * R * seg_rate_v + 2 * abs(a) * seg_rate_h)
    est_nodes = int(est * density / _PHASE_PER_PANEL * 16)
    if est_nodes > max_nodes:
        raise ContourBudgetError(est_nodes, max_nodes)

    g1 = _arc_piece("gamma1", R, -math.pi / 2, math.pi / 2, arc_rate, density)
    g1r = _arc_piece("gamma1_reflected", R, math.pi / 2, 3 * math.pi / 2, arc_rate, density)

    pieces: list[QuadPiece] = []
    pieces.append(_segment_piece("gamma2_top", 1j * R, a + 1j * R, seg_rate_h, density))
    ys = [R] + [y for y in (min(1.0, R), 0.0, -min(1.0, R)) if abs(y) < R or y == 0.0] + [-R]
    ys = sorted(set(ys), reverse=True)
    for i, (y_hi, y_lo) in enumerate(zip(ys[:-1], ys[1:])):
        if y_hi > y_lo:
            pieces.append(_segment_piece(f"gamma2_vertical_{i}",
                                         a + 1j * y_hi, a + 1j * y_lo, seg_rate_v, density))
    pieces.append(_segment_piece("gamma2_bottom", a - 1j * R, -1j * R, seg_rate_h, density))

    spec = ContourSpec(R=R, left_abscissa=a, gamma1=g1, gamma1_reflected=g1r,
                       gamma2=tuple(pieces))
    if spec.total_nodes > max_nodes:
        raise ContourBudgetError(spec.total_nodes, max_nodes)
    return spec


# -- extension evaluators ---------------------------------------------------------


class RationalExtension:
    """p(z)/q(z) with ascending coefficient tuples; q must not vanish on use."""

    def __init__(self, numerator, denominator):
        self.numerator = tuple(complex(c) for c in numerator)
        self.denominator = tuple(complex(c) for c in denominator)
        if not any(c != 0 for c in self.denominator):
            raise ValueError("denominator is identically zero")

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        num = npoly.polyval(z, np.asarray(self.numerator))
        den = npoly.polyval(z, np.asarray(self.denominator))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = num / den
        return out if out.ndim else complex(out)

    def describe(self) -> str:
        return f"rational(num={self.numerator}, den={self.denominator})"


class EtaShiftExtension:
    """z -> eta(z + 1): the analytic extension of the alternating unit series."""

    def __init__(self, terms: int = 96):
        self.terms = terms

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return eta(z + 1.0, n=self.terms)

    def describe(self) -> str:
        return f"eta_shift(terms={self.terms})"


def _eval_extension(f_ext, z: np.ndarray, dimension: int) -> np.ndarray:
    vals = np.asarray(f_ext(np.asarray(z, dtype=complex)), dtype=complex)
    if vals.ndim == 1:
        if dimension != 1:
            raise ValueError("scalar extension used with a vector-valued integrator")
        vals = vals[:, None]
    if vals.shape != (np.size(z), dimension):
        raise ValueError(f"extension returned shape {vals.shape}, expected ({np.size(z)}, {dimension})")
    if not np.all(np.isfinite(vals)):
        bad = np.where(~np.all(np.isfinite(vals), axis=1))[0][0]
        raise ValueError(f"extension evaluator is singular near z = {complex(np.asarray(z).ravel()[bad])}")
    return vals


# -- one evaluation, three reductions -------------------------------------------


@dataclass(frozen=True)
class PieceValues:
    """One contour piece with its integrand split as g(z) F(z) at the nodes."""

    piece: QuadPiece
    g: np.ndarray  # analytic weight, signed as the piece enters the identity
    F: np.ndarray  # (n, d) values of the integrator side


@dataclass(frozen=True)
class ContourEvaluation:
    """The integrand of the residue identity on one contour at (t, R).

    terms holds the pieces of term I (gamma1: g = -fudge/z, F the tail
    integral), term II (gamma1_reflected: g = fudge/z, F the shifted
    partial transform) and term III (the gamma2 pieces: g = -e^{tz} fudge/z,
    F the extension).
    """

    bv: BVFunction
    f_ext: object
    t: float
    R: float
    MR: float  # M(R)
    quad_tol: float
    terms: tuple[tuple[PieceValues, ...], ...]

    @property
    def total_nodes(self) -> int:
        return int(sum(p.piece.nodes.size for term in self.terms for p in term))


def evaluate_contour(bv: BVFunction, f_ext, M: GrowthBound, t: float, R: float,
                     density: float = 1.0, quad_tol: float = 1e-12,
                     max_nodes: int = 400_000) -> ContourEvaluation:
    """Build the contour and evaluate the integrand on every node, once."""
    spec = build_contour(M, R, t, density, max_nodes)
    g1, g1r = spec.gamma1, spec.gamma1_reflected
    term1 = PieceValues(g1, -(fudge_factor(g1.nodes, R) / g1.nodes),
                        exp_tail_integral(bv, g1.nodes, t, quad_tol))
    term2 = PieceValues(g1r, fudge_factor(g1r.nodes, R) / g1r.nodes,
                        exp_partial_integral(bv, g1r.nodes, t, quad_tol))
    term3 = tuple(
        PieceValues(p, -(np.exp(t * p.nodes) * fudge_factor(p.nodes, R) / p.nodes),
                    _eval_extension(f_ext, p.nodes, bv.dimension))
        for p in spec.gamma2)
    return ContourEvaluation(bv=bv, f_ext=f_ext, t=t, R=R, MR=float(M(R)),
                             quad_tol=quad_tol, terms=((term1,), (term2,), term3))


@dataclass(frozen=True)
class CauchyReport:
    t: float
    R: float
    lhs: np.ndarray
    reference: np.ndarray
    abs_error: float
    residual: float
    total_nodes: int
    remainder_bound: float  # jump-sum truncation bound per node, tail plus partial


def cauchy_identity_report(ev: ContourEvaluation, f0=None) -> CauchyReport:
    """Both sides of the residue identity and their relative gap.

    The left side is (1/2 pi i) sum (dz g) @ F over all pieces.  The
    reference is A(t) - f(0), with f(0) from the extension unless an
    explicit f0 array is supplied.
    """
    bv = ev.bv
    sums = []
    for term in ev.terms:
        acc = np.zeros(bv.dimension, dtype=complex)
        for p in term:
            acc += (p.piece.dz_weights * p.g) @ p.F
        sums.append(acc)
    lhs = (sums[0] + sums[1] + sums[2]) / (2j * math.pi)

    if f0 is None:
        f0_arr = _eval_extension(ev.f_ext, np.asarray([0j]), bv.dimension)[0]
    else:
        f0_arr = np.atleast_1d(np.asarray(f0, dtype=complex))
    reference = bv.value_at(ev.t, ev.quad_tol) - f0_arr
    abs_error = float(vector_norm(lhs - reference, bv.norm_kind))
    residual = abs_error / max(1e-30, float(vector_norm(reference, bv.norm_kind)))
    return CauchyReport(t=ev.t, R=ev.R, lhs=lhs, reference=reference,
                        abs_error=abs_error, residual=residual,
                        total_nodes=ev.total_nodes,
                        remainder_bound=jump_sum_remainder(bv.jump_sizes))


def cauchy_residual(bv: BVFunction, f_ext, M: GrowthBound, t: float, R: float,
                    density: float = 1.0, quad_tol: float = 1e-12,
                    f0=None) -> float:
    """Relative residual of the identity (denominator guarded at 1e-30)."""
    ev = evaluate_contour(bv, f_ext, M, t, R, density, quad_tol)
    return cauchy_identity_report(ev, f0).residual


@dataclass(frozen=True)
class TermBound:
    name: str
    measured: float
    bound_displayed: float
    bound_derived: float

    @property
    def margin_displayed(self) -> float:
        return self.bound_displayed - self.measured

    @property
    def margin_derived(self) -> float:
        return self.bound_derived - self.measured


def term_bounds(ev: ContourEvaluation,
                cert: TauberianCertificate) -> tuple[TermBound, TermBound, TermBound]:
    """Norm integrals of the three contour terms against their asserted bounds.

    Each term's measured value is (1/2 pi) sum |g| ||F|| ds over its pieces.
    Each term reports two reference constants: the displayed (rounded-up) one
    and the sharper one the derivation actually produces; both margins should
    be nonnegative on instances whose certificate holds.
    """
    measured = []
    for term in ev.terms:
        total = 0.0
        for p in term:
            normf = np.asarray(vector_norm(p.F, ev.bv.norm_kind), dtype=float)
            total += float(np.sum(p.piece.abs_weights * np.abs(p.g) * normf)) / (2 * math.pi)
        measured.append(total)

    C, t, R, MR = cert.C, ev.t, ev.R, ev.MR
    III_bound = MR / (t * R ** 3) + 2.0 * R * MR * MR * math.exp(-t / (2.0 * MR))
    term_I = TermBound("I", measured[0], 6.0 * C / R, 12.0 * C / (math.pi * R) + 2.0 * C / R)
    term_II = TermBound("II", measured[1], 4.0 * C / R, 4.0 * C / (math.pi * R) + 2.0 * C / R)
    term_III = TermBound("III", measured[2], III_bound, III_bound)
    return term_I, term_II, term_III


def contour_dump(ev: ContourEvaluation) -> list[tuple]:
    """Rows (piece, s_param, re z, im z, |integrand|) for plotting."""
    rows: list[tuple] = []
    for term in ev.terms:
        for p in term:
            q = p.piece
            vals = np.asarray(vector_norm(p.F, ev.bv.norm_kind), dtype=float) * np.abs(p.g)
            rows.extend(zip([q.name] * q.nodes.size, q.params, q.nodes.real, q.nodes.imag, vals))
    return rows


def extension_agreement(bv: BVFunction, f_ext, cert: TauberianCertificate,
                        rng: np.random.Generator, n_points: int = 20,
                        target_err: float = 1e-9, quad_tol: float = 1e-12) -> float:
    """Max gap between the extension and the truncated transform at random z.

    Samples Re z in [0.3, 2.5], |Im z| <= 2.5; the gap should stay within
    target_err plus the reported truncation bounds.
    """
    worst = 0.0
    for _ in range(n_points):
        x = rng.uniform(0.3, 2.5)
        y = rng.uniform(-2.5, 2.5)
        z = complex(x, y)
        point = improper_laplace(bv, z, cert, target_err=target_err, quad_tol=quad_tol)
        ext = _eval_extension(f_ext, np.asarray([z]), bv.dimension)[0]
        gap = float(vector_norm(point.value - ext, bv.norm_kind))
        worst = max(worst, gap)
    return worst
