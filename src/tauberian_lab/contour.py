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
the reflected arc (Re z <= 0, ``exp_partial_integral``).  The reference
A(t) on the left is that partial integral at one more node, z = 0, in the
reflected arc's call: int_[0, t) dA from the same jump sums (the range plan
of a repeating table, the block-Taylor kernel of materialised jumps) and
density integrals as every node, not from a second evaluator.

Each (t, R) is evaluated once: ``evaluate_contour`` builds the contour and
stores, per piece, the analytic weight g and the node values F of the
integrand g F, and A(t).  Three reductions read that one
``ContourEvaluation``: ``cauchy_identity_report`` sums (dz g) @ F against
A(t) - f(0), ``term_bounds`` sums |dz| |g| ||F|| per term, and
``contour_dump`` lists ||F|| |g| per node.
A contour needs 16 nodes per panel; one of more than _MAX_NODES nodes, or of a
count that overflows to inf, is refused with ContourBudgetError before any node
is evaluated.  ``extension_agreement`` spot-checks the extension against the
transform, truncated at a certified error of _AGREEMENT_TARGET_ERR = 1e-9, at a
fixed _AGREEMENT_POINTS = 12 seeded points.  The identity's residual, each
term and the spot check each give a ``verify.Check``, judged by the one rule
``Check.passed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .bv import BVFunction, exp_partial_integral, exp_tail_integral, gauss_legendre_panels
from .growth import GrowthBound
from .rates import bound_terms
from .transform import TauberianCertificate, TransformPoint, improper_laplace
from .vectors import vector_norm
from .verify import Check

_PHASE_PER_PANEL = 1.2  # radians of integrand phase per 16-node panel
_MAX_NODES = 400_000  # node budget of one contour
_AGREEMENT_POINTS = 12  # seeded points of the extension spot check (extension_agreement)
_AGREEMENT_TARGET_ERR = 1e-9  # certified truncation bound of the transform at each of them


class ContourBudgetError(ValueError):
    def __init__(self, required_nodes: int, max_nodes: int):
        self.required_nodes = required_nodes
        self.max_nodes = max_nodes
        super().__init__(
            f"contour quadrature needs {required_nodes:.0f} nodes, over the budget of "
            f"{max_nodes}; lower t, R or the density multiplier")


def fudge_factor(z, R: float) -> np.ndarray:
    """(1 + z^2/R^2)^2, elementwise; on |z| = R its modulus is (2|Re z|/R)^2."""
    z = np.asarray(z, dtype=complex)
    return np.asarray((1.0 + (z / R) ** 2) ** 2)


@dataclass(frozen=True)
class QuadPiece:
    """One smooth piece with Gauss-Legendre nodes baked in."""

    name: str
    params: np.ndarray       # per-node parameter (angle on arcs, length on segments)
    nodes: np.ndarray        # z per node
    dz_weights: np.ndarray   # weight * z'(u): complex line element
    abs_weights: np.ndarray  # weight * |z'(u)|: arc-length element


def _panels(length: float, rate: float, density: float, least: int) -> float:
    # rate = phase change of the integrand per unit length; a float count, inf
    # where it overflows, so that the budget check sees it before any int()
    return max(least, float(np.ceil(length * rate * density / _PHASE_PER_PANEL)))


def _arc_piece(name: str, R: float, th0: float, th1: float, panels: int) -> QuadPiece:
    th, w = gauss_legendre_panels(th0, th1, panels)
    z = R * np.exp(1j * th)
    dz = 1j * z  # dz/dtheta
    return QuadPiece(name, th, z, w * dz, w * np.abs(dz))


def _segment_piece(name: str, za: complex, zb: complex, panels: int) -> QuadPiece:
    u, w = gauss_legendre_panels(0.0, 1.0, panels)
    z = za + u * (zb - za)
    dz = zb - za
    return QuadPiece(name, u * abs(dz), z, w * dz, w * np.full_like(u, abs(dz)))


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


def build_contour(M: GrowthBound, R: float, t: float, density: float = 1.0) -> ContourSpec:
    """Half-circle pair plus the three-segment left path at -1/(2 M(R)).

    Panel counts scale with the e^{tz} oscillation (t per unit length, t*R
    per radian); the long vertical segment is split at the axis and at
    |Im z| = 1 so refinement lands where 1/z varies fastest.
    """
    if not (R >= 1.0 and math.isfinite(R)):
        raise ValueError("contour radius must be finite and >= 1")
    if not t > 0:
        raise ValueError("contour verification needs t > 0")
    if not (density > 0 and math.isfinite(density)):
        raise ValueError("density multiplier must be positive and finite")
    a = -1.0 / (2.0 * float(M(R)))
    arc_rate = t + 4.0 / R + 2.0
    seg_rate_v = t + 2.0 * float(M(R)) + 2.0
    seg_rate_h = t + 2.0 + 1.0 / R

    arcs = [("gamma1", -math.pi / 2, math.pi / 2),
            ("gamma1_reflected", math.pi / 2, 3 * math.pi / 2)]
    segments = [("gamma2_top", 1j * R, a + 1j * R, seg_rate_h)]
    ys = sorted({R, 1.0, 0.0, -1.0, -R}, reverse=True)
    segments += [(f"gamma2_vertical_{i}", a + 1j * y_hi, a + 1j * y_lo, seg_rate_v)
                 for i, (y_hi, y_lo) in enumerate(zip(ys[:-1], ys[1:]))]
    segments.append(("gamma2_bottom", a - 1j * R, -1j * R, seg_rate_h))
    arc_panels = [_panels(abs(th1 - th0) * R, arc_rate, density, 4) for _, th0, th1 in arcs]
    seg_panels = [_panels(abs(zb - za), rate, density, 2) for _, za, zb, rate in segments]
    nodes = 16 * (sum(arc_panels) + sum(seg_panels))
    if nodes > _MAX_NODES:
        raise ContourBudgetError(nodes, _MAX_NODES)

    g1, g1r = (_arc_piece(name, R, th0, th1, int(n))
               for (name, th0, th1), n in zip(arcs, arc_panels))
    gamma2 = tuple(_segment_piece(name, za, zb, int(n))
                   for (name, za, zb, _), n in zip(segments, seg_panels))
    return ContourSpec(R=R, left_abscissa=a, gamma1=g1, gamma1_reflected=g1r, gamma2=gamma2)


# -- extension evaluators ---------------------------------------------------------


class RationalExtension:
    """p(z)/q(z) with ascending coefficient tuples; q must not vanish on use."""

    def __init__(self, numerator, denominator):
        self.numerator = tuple(complex(c) for c in numerator)
        self.denominator = tuple(complex(c) for c in denominator)
        if not any(c != 0 for c in self.denominator):
            raise ValueError("denominator is identically zero")

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        num = npoly.polyval(z, np.asarray(self.numerator))
        den = npoly.polyval(z, np.asarray(self.denominator))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.asarray(num / den)


# terms of the accelerated eta by default: the error (3 + sqrt 8)^-96 is about 1e-73
ACCELERATION_TERMS = 96
# the most terms whose weights stay finite in float64: from n = 399 on the b recurrence
# overflows (and from 403 on (3 + sqrt 8)^n), which gives nan or an OverflowError
MAX_ACCELERATION_TERMS = 398


def eta(s, n: int = ACCELERATION_TERMS):
    """Dirichlet eta(s) = sum_{m>=1} (-1)^{m+1} m^{-s}, scalar or array s.

    The Cohen-Rodriguez Villegas-Zagier acceleration of the alternating
    series (Experimental Math. 9, 2000), whose error decays like
    (3 + sqrt 8)^-n.  It converges for complex s well into the left of
    Re s = 1; accuracy degrades like e^{pi |Im s| / 2}, which the default
    n = ACCELERATION_TERMS leaves with dozens of spare digits for |Im s| up
    to ~50.  n above MAX_ACCELERATION_TERMS raises a ValueError.
    """
    if n > MAX_ACCELERATION_TERMS:
        raise ValueError(f"the acceleration takes at most {MAX_ACCELERATION_TERMS} terms, got {n}")
    s_arr = np.atleast_1d(np.asarray(s, dtype=complex))
    a = np.exp(-s_arr[None, :] * np.log((np.arange(n)[:, None] + 1.0).astype(complex)))
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b, c = -1.0, -d
    total = np.zeros(a.shape[1:], dtype=complex)
    for j in range(n):
        c = b - c
        total = total + c * a[j]
        b = (j + n) * (j - n) * b / ((j + 0.5) * (j + 1.0))
    out = total / d
    return out if np.ndim(s) else complex(out[0])


class EtaShiftExtension:
    """z -> eta(z + 1): the analytic extension of the alternating unit series."""

    def __init__(self, terms: int = ACCELERATION_TERMS):
        self.terms = terms

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return eta(z + 1.0, n=self.terms)


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
    spec: ContourSpec
    MR: float  # M(R)
    quad_tol: float
    terms: tuple[tuple[PieceValues, ...], ...]
    A_t: np.ndarray  # (d,) A(t) = int_[0, t) dA, the partial integral's row at z = 0


def evaluate_contour(bv: BVFunction, f_ext, M: GrowthBound, t: float, R: float,
                     density: float = 1.0, quad_tol: float = 1e-12) -> ContourEvaluation:
    """Build the contour and evaluate the integrand on every node, once.

    The reflected arc's partial integrals take one more node, z = 0, whose
    row int_[0, t) dA is A(t), left-continuous: the identity's reference
    comes from the same call and the same jump sums as the arc's rows, and
    leaves each of them as it would be without it.
    """
    spec = build_contour(M, R, t, density)
    g1, g1r = spec.gamma1, spec.gamma1_reflected
    term1 = PieceValues(g1, -(fudge_factor(g1.nodes, R) / g1.nodes),
                        exp_tail_integral(bv, g1.nodes, t, quad_tol))
    partial = exp_partial_integral(bv, np.append(g1r.nodes, 0j), t, quad_tol)
    term2 = PieceValues(g1r, fudge_factor(g1r.nodes, R) / g1r.nodes, partial[:-1])
    # one extension call over every left-path node; each node's value is its own
    values = _eval_extension(f_ext, np.concatenate([p.nodes for p in spec.gamma2]),
                             bv.dimension)
    ends = np.cumsum([p.nodes.size for p in spec.gamma2])[:-1]
    term3 = tuple(
        PieceValues(p, -(np.exp(t * p.nodes) * fudge_factor(p.nodes, R) / p.nodes), F)
        for p, F in zip(spec.gamma2, np.split(values, ends)))
    return ContourEvaluation(bv=bv, f_ext=f_ext, t=t, spec=spec, MR=float(M(R)),
                             quad_tol=quad_tol, terms=((term1,), (term2,), term3),
                             A_t=partial[-1])


def cauchy_identity_report(ev: ContourEvaluation, f0, tol: float) -> Check:
    """The relative gap of the two sides of the residue identity, checked against tol.

    The left side is (1/2 pi i) sum (dz g) @ F over all pieces.  The
    reference is A(t) - f(0), with A(t) the evaluation's own (ev.A_t) and
    f(0) from the extension where f0 is None, else the f0 array.  The check
    is witnessed at t.
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
    reference = ev.A_t - f0_arr
    abs_error = float(vector_norm(lhs - reference, bv.norm_kind))
    residual = abs_error / max(1e-30, float(vector_norm(reference, bv.norm_kind)))
    return Check("residual", residual, tol, ev.t)


def term_bounds(ev: ContourEvaluation, cert: TauberianCertificate) -> tuple[Check, Check, Check]:
    """Norm integrals of the three contour terms I, II and III against their bounds, at t.

    Each term's value is (1/2 pi) sum |g| ||F|| ds over its pieces.  The
    bounds are the displayed ones, 6 C/R, 4 C/R and the decay bound's last two
    terms; each margin should be nonnegative on instances whose certificate
    holds.
    """
    measured = []
    for term in ev.terms:
        total = 0.0
        for p in term:
            normf = np.asarray(vector_norm(p.F, ev.bv.norm_kind), dtype=float)
            total += float(np.sum(p.piece.abs_weights * np.abs(p.g) * normf)) / (2 * math.pi)
        measured.append(total)

    C, R = cert.C, ev.spec.R
    _, second, third = bound_terms(C, ev.MR, ev.t, R)
    return (Check("I", measured[0], 6.0 * C / R, ev.t),
            Check("II", measured[1], 4.0 * C / R, ev.t),
            Check("III", measured[2], second + third, ev.t))


def contour_dump(ev: ContourEvaluation) -> list[tuple]:
    """Rows (piece, s_param, re z, im z, |integrand|) of Python floats, for plotting."""
    rows: list[tuple] = []
    for term in ev.terms:
        for p in term:
            q = p.piece
            vals = np.asarray(vector_norm(p.F, ev.bv.norm_kind), dtype=float) * np.abs(p.g)
            rows.extend(zip([q.name] * q.nodes.size, q.params.tolist(), q.nodes.real.tolist(),
                            q.nodes.imag.tolist(), vals.tolist()))
    return rows


def extension_agreement(bv: BVFunction, f_ext, cert: TauberianCertificate,
                        rng: np.random.Generator, tol: float,
                        quad_tol: float = 1e-12) -> tuple[Check, TransformPoint]:
    """Max gap between the extension and the truncated transform at _AGREEMENT_POINTS random z,
    checked against tol, and the transform at those z.

    Samples Re z in [0.3, 2.5], |Im z| <= 2.5 (Re z, then Im z, per point);
    the gap should stay within _AGREEMENT_TARGET_ERR plus the transform's
    truncation bounds.  All points take one improper_laplace call and one
    extension call.
    """
    z = np.asarray([complex(rng.uniform(0.3, 2.5), rng.uniform(-2.5, 2.5))
                    for _ in range(_AGREEMENT_POINTS)], dtype=complex)
    point = improper_laplace(bv, z, cert, target_err=_AGREEMENT_TARGET_ERR, quad_tol=quad_tol)
    ext = _eval_extension(f_ext, z, bv.dimension)
    gaps = np.asarray(vector_norm(point.value - ext, bv.norm_kind), dtype=float)
    return Check("agreement", float(np.max(gaps)), tol), point
