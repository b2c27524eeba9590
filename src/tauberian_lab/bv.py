"""Vector-valued integrators of locally bounded variation and their Stieltjes integrals.

An integrator is a finite list of jumps (strictly increasing locations, vector
sizes) plus piecewise smooth densities drawn from a small preset family.  The
cumulative value is normalized to be left-continuous with value 0 at 0, so a
jump at location tau contributes to integrals over [0, t) exactly when tau < t.

Two evaluation surfaces coexist on purpose:

* ``stieltjes_integral(bv, rate, t)`` integrates e^{rate s} dA(s) over
  [0, t) as written, one exponential per jump (none at rate 0, as for
  ``value_at``).  Fine for moderate arguments, and the reference semantics
  everything else is tested against.
* the ``*_grid`` / ``exp_*`` evaluators keep exponential weights shifted
  inside the integral (all weights have modulus <= 1), which is the only way
  quantities like x e^{-xt} int_0^t e^{xs} dA(s) survive x*t in the hundreds
  without overflowing float64.  They are algebraically identical rewrites.

Splitting one integral at t gives the partial transform over [0, t) and the
tail over [t, inf), so each pair of evaluators has one body.
``_exp_range_integral`` integrates e^{-z(s-t)} dA(s) over a half-open range
[lo, hi): ``exp_tail_integral`` passes [t, inf), ``exp_partial_integral``
passes [0, t), and ``transform.improper_laplace`` passes t = 0 and one end
hi_i = t*_i per point, so all of its points take one call.
``_weighted_sweep`` integrates e^{c s - Re(c) t_j} dA(s) for every grid
point and every rate of an (m,) array c, one call for all of them:
``weighted_partial_grid`` walks its grid upward from 0 with c = z,
``weighted_tail_grid`` walks it downward from v_max with c = -z, and both
take an (m,) array of z and give (m, n, d).
The sweep needs no direction flag: each row covers the range between the
start and its point, [start, t_j) or [t_j, start), so the order of the
points it is handed is the direction.  The four public evaluators check
their input and call these bodies.

The sweep has no loop over its rows.  Each row first gets its own step, the
jumps and density between the previous point and its own.  The jumps go by
one range plan (``_jump_rows``): for every abscissa and row, the jump ranges
it sums one by one, in the order of the jumps, and for a Dirichlet table the
full periods it sums in closed form (see below).  One direct kernel
(``_direct_sums``) sums every planned range, each abscissa's jumps in chunks
of _TILE_JUMPS = 8192, so no temporary grows with the number of jumps.  A
range is cut at the chunk edges, so a row that spans chunks adds its parts
in order, and where an abscissa's ranges are one run of jumps the chunks
are the fixed windows of 8192 jumps from its start.  Constant and
exponential pieces take their closed form for every abscissa and row at
once, and every other piece takes one quad call per sweep call, over the
rows of all its abscissas.  A blocked
prefix scan (Blelloch 1990) then adds up the steps with the decay
e^{Re(c) (t_i - t_j)}.  A block spans at most _SCAN_SPAN = 256 in Re(c) t;
inside it the steps are scaled by e^{Re(c) (t_i - t_block)} <= e^256,
summed by np.cumsum and scaled back, and a carry passes from one block to
the next, so there are about |Re c| span(t) / 256 blocks.  The scan runs
once per call, back into the rows array: every abscissa whose grid fits one
block shares one np.cumsum, and only the others walk their blocks.  The two
rounded exponents cost each term at most about 2 eps 256 relative (under
6e-14).
The steps are divided by a power of two near their largest entry first, so
no scaled sum overflows, and a result that is still not finite raises.
A partial sweep can also return only some of its rows
(``weighted_partial_grid(..., held=...)``): those that ``_rising_rows``
names, where ||G|| can rise (row 0, each row whose step takes a jump or
meets a density piece, and any rows the caller adds), which is how
``verify`` reads its sups.  A held list that leaves out a row whose step
takes a jump or meets a density piece raises ValueError naming it.  Every
other row's step is zero, so the jump sums go into the held rows' slots and
the scan sums only those; its blocks are still cut on the full grid, and the carry into a block
comes from the last held row before it or from the previous carry alone.
The scan ends with the block that holds the last held row, since no slot
reads a carry past it; an abscissa whose rows up to there fit one block
joins the shared np.cumsum.
Each held row is bitwise the full sweep's, and no other row is larger in any
norm than the last held row before it.  The public grid evaluators hold
every row.

An integrator that carries its Dirichlet table (``BVFunction.table``, q
rows b_r, jump n = b_n / n at log n) answers its jump rows in closed form
past a head.  The plan gives abscissa c each row's range up to its head of
q ceil(_HEAD_SLOPE |c| + _HEAD_PERIODS) jumps, whose weights are zeroed
below e^-_NEGLIGIBLE_LOG as for any integrator.  Past the head, a row's
range starts (upward) or ends (downward) at the e^-_NEGLIGIBLE_LOG cut; the
plan hands its partial periods at either end to the same direct kernel, and
its full periods between take one Euler-Maclaurin range sum
(``_period_sums``), whose remainder ``_range_sum_bound`` proves below
_RANGE_SUM_TOL = 2^-60 of the range's jump mass.  A file's table has
q >= n_max rows, so it has no full period past the head and stays jump by
jump.  Every other reader of the jump arrays (``_rising_rows``,
``value_at``, the contour kernel below) keeps them.

The contour evaluators ``exp_tail_integral`` and ``exp_partial_integral``,
and the improper transform, share one jump-sum kernel for
sum_k s_k e^{-z(tau_k - t)} over N jumps and many nodes z.  It groups the
sorted jumps into blocks of width h = 2/max|z|, forms per-block Taylor
moments of order P = 20 about each block's centre c_b, and evaluates
sum_b e^{-z(c_b - t)} sum_p (-z h/2)^p m_{b,p}, where every factor has
modulus <= 1.  Truncation adds at most
sum_k ||s_k|| e / 21! (<= 2^-60 sum_k ||s_k||) to each entry, the bound
``jump_sum_remainder`` gives and the contour sidecar reports.  The block
factors carry their phase's rounding error (``_block_factors``), so a phase
of hundreds of radians still leaves each factor accurate to about eps.  The
cost is O(N P + nodes * blocks * P) instead of the dense O(nodes * N)
exponentials, and blocks <= min(N, 1 + span(tau) max|z| / 2).  Where the
nodes' ranges end at different jumps, the kernel runs once per run of jumps
between two consecutive ends, over the nodes whose range covers it, so the
moments still cost O(N P) in all.  Besides the moments, the kernel holds
about three arrays of the jumps' length at once: the offsets u, one moment
term updated in place, and u / (p + 1).

Every evaluator integrates a density piece through one body,
``_piece_integrals``: int e^{w(s)} base(s) ds over arrays of ranges, where
w is affine in s with slope c (the rate of ``stieltjes_integral``, the rate
c of a sweep, -z on the contour).  Constant and exponential pieces (rate r)
take one closed form, with d = c + r: e^{w(a) + r a} times the complex expm1
of ``_exp_segment`` on a bounded range, anchored at the end a where
Re(d s) is larger, and e^{w(lo) + r lo} / (-d) on [lo, inf), which is
refused unless Re d < 0.  The other kinds take ``quad`` (on [lo, inf) only
where Re d < 0, or Re d = 0 and s^a decays faster than 1/s), one vectorised
adaptive Gauss-Kronrod (7/15) routine that integrates many intervals per
call: all the contour nodes of a piece, or all the (abscissa, row)
intervals of a weighted sweep call.  The sweeps and the contour kernel take
their pieces through one loop, ``_add_pieces``; ``stieltjes_integral``, the
reference, keeps its own.  The integrand is
formed as s^a e^{log weight + rate s}, so a growing base under a faster
decaying weight does not overflow.
Each interval converges on its own, when the sum of |K15 - G7| over its
subintervals is at most max(quad_tol, 1e-12 |I|); each round bisects the
subintervals whose estimate is at least their interval's mean.  A power s^a with -1 < a < 0 is
integrated in u = expm1(b log s) / b, b = a + 1, which removes the endpoint
singularity and keeps its digits as a -> -1, and [lo, inf) is mapped onto [0, 1).  An interval that has used 400 subintervals
without converging raises ``QuadratureError``, an ArithmeticError that names
the interval and the density kind; no unconverged value is ever returned.
A call takes its intervals in slices of _MAX_BLOCK_ELEMENTS / (15 * 400), so
that its node arrays stay bounded however many intervals it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .vectors import NORM_KINDS, one_d, vector_norm

DENSITY_KINDS = ("constant", "exponential", "power", "damped_power")

# log(weight) below which exponentially damped contributions are provably
# negligible relative to total variation (e^-60 ~ 8.8e-27).
_NEGLIGIBLE_LOG = 60.0

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# Block-Taylor jump sums: blocks of width 2 rho / max|z|, Taylor order P.
# The remainder rho^{P+1} e^rho / (P+1)! is 5.3e-20 <= 2^-60 for rho = 1,
# P = 20, and P = 19 would miss it.
_TAYLOR_RADIUS = 1.0
_TAYLOR_ORDER = 20
_TAYLOR_REMAINDER = (_TAYLOR_RADIUS ** (_TAYLOR_ORDER + 1) * math.exp(_TAYLOR_RADIUS)
                     / math.factorial(_TAYLOR_ORDER + 1))
# largest temporary of one node chunk, in array elements
_MAX_BLOCK_ELEMENTS = 2_000_000
# jumps of one chunk of _direct_sums, so that its temporaries (64-256 KiB each
# for d <= 2) stay bounded however many jumps a sweep weights.  It fixes the
# chunk edges, and so the last bits of a row that straddles one; it was tuned
# on sweeps of 1e6 jumps for the earlier loop, whose buffers lived per call
_TILE_JUMPS = 8192
# width in Re(c) t of one block of the weighted sweep's scan: it bounds the
# scaled rows by e^256, far inside float64, and the rounding of a term's two
# exponents by about 2 eps 256 relative; a wider block saves few block steps
_SCAN_SPAN = 256.0
# relative rounding-up of BVFunction.variation_bound, over its closed forms' few ulps
_ROUND_UP = 1e-12
# Range sums of a table's full periods (_period_sums): Euler-Maclaurin with the
# Bernoulli terms B_2j / (2j)!, j = 1.._EM_TERMS, each endpoint term expanded in
# 1/m to degree _EM_DEGREE.  At abscissa c they start past the head of
# ceil(_HEAD_SLOPE |c| + _HEAD_PERIODS) periods, where _range_sum_bound proves
# the remainder below _RANGE_SUM_TOL of the range's jump mass; the bound is
# below 0.1 of it for every c, the most as |c| -> inf on the negative axis
_EM_TERMS, _EM_DEGREE = 9, 20
_HEAD_SLOPE, _HEAD_PERIODS = 2.0, 32.0
_RANGE_SUM_TOL = 2.0 ** -60
_BERNOULLI = np.asarray([  # B_2j / (2j)!, j = 1.._EM_TERMS
    num / den / math.factorial(2 * j) for j, (num, den) in enumerate((
        (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
        (43867, 798)), start=1)])
# lambda = _EM_MATRIX mu (_period_sums): lambda_0 = mu_0 and, for p >= 1,
# lambda_p = mu_p / p - mu_{p-1} / 2
#            + sum_{j <= min(_EM_TERMS, p/2)} B_2j / (2j)! (p-1) ... (p-2j+1) mu_{p-2j},
# which is sum_r b_r B_p(r/q) / p for the Bernoulli polynomial B_p, but for
# the Bernoulli terms past _EM_TERMS
_EM_MATRIX = np.diag(1.0 / np.maximum(np.arange(_EM_DEGREE + 1.0), 1.0))
_EM_MATRIX -= 0.5 * np.eye(_EM_DEGREE + 1, k=-1)
for _j, _beta in enumerate(_BERNOULLI, start=1):
    _p = np.arange(2 * _j, _EM_DEGREE + 1)
    _EM_MATRIX[_p, _p - 2 * _j] = _beta * np.prod(_p[:, None] - np.arange(1.0, 2 * _j), axis=1)
del _j, _beta, _p

# Gauss-Kronrod 7/15 on [-1, 1] (QUADPACK's qk15), nodes ascending; the seven
# Gauss nodes are the odd-indexed ones.
_GK_NODES = np.asarray([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245])
_GK_NODES = np.concatenate((-_GK_NODES, [0.0], _GK_NODES[::-1]))
_GK_KRONROD = np.asarray([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_GK_KRONROD = np.concatenate((_GK_KRONROD, _GK_KRONROD[-2::-1]))
_GK_GAUSS = np.zeros(15)
_GK_GAUSS[1::2] = [0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
                   0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
                   0.381830050505118944950369775488975, 0.279705391489276667901467771423780,
                   0.129484966168869693270611432679082]
# subintervals one adaptive integral may use, as QUADPACK's limit
_QUAD_LEAVES = 400
# relative tolerance of every adaptive integral, beside its absolute quad_tol
_QUAD_REL_TOL = 1e-12


class NonFiniteIntegrandError(ValueError):
    """An evaluator produced inf or nan on the integration range."""

    def __init__(self, s: float, detail: str = ""):
        self.s = float(s)
        msg = f"integrand evaluated to a nonfinite value at s = {self.s!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def _guard_finite(values: np.ndarray, locations: np.ndarray, detail: str = "") -> None:
    bad = ~np.isfinite(values)
    if np.any(bad):
        where = np.broadcast_to(locations, values.shape)[bad]
        raise NonFiniteIntegrandError(float(np.atleast_1d(where)[0]), detail)


def _refuse_nan(*times) -> None:
    # a nan time passes every range test (each comparison is false)
    if any(np.any(np.isnan(t)) for t in times):
        raise ValueError("t = nan is not a time")


class QuadratureError(ArithmeticError):
    """Adaptive quadrature used its subinterval budget without meeting the tolerance."""

    def __init__(self, index: int, lo: float, hi: float, err: float, tol: float,
                 what: str = "the integrand"):
        self.index, self.err, self.tol = index, float(err), float(tol)
        super().__init__(f"adaptive quadrature of {what} on [{lo:g}, {hi:g}) did not converge: "
                         f"error estimate {err:.3g} > tolerance {tol:.3g} "
                         f"with {_QUAD_LEAVES} subintervals")


@dataclass(frozen=True)
class DensityPiece:
    """Density scale * base(s) on [start, end), end = inf allowed.

    base by kind: constant 1, exponential e^{rate s}, power s^exponent,
    damped_power s^exponent e^{rate s}; constant and power take no rate.
    base is nonnegative on s >= 0 when rate is real.
    """

    start: float
    end: float
    kind: str
    scale: tuple[complex, ...]
    rate: complex = 0.0
    exponent: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in DENSITY_KINDS:
            raise ValueError(f"unknown density kind {self.kind!r}; expected one of {DENSITY_KINDS}")
        if not (0.0 <= self.start < self.end):
            raise ValueError(f"bad density interval [{self.start}, {self.end})")
        if not math.isfinite(self.start):
            raise ValueError("density interval must start at a finite point")
        object.__setattr__(self, "scale", tuple(complex(c) for c in self.scale))
        if not np.all(np.isfinite(self.scale)):
            raise ValueError("density scale must be finite")
        if self.kind in ("constant", "power") and self.rate != 0:
            raise ValueError(f"density kind {self.kind!r} takes no rate")
        if self.kind in ("power", "damped_power"):
            if self.start == 0.0 and self.exponent <= -1.0:
                raise ValueError("power density with exponent <= -1 is not integrable at 0")
        if not all(np.isfinite([self.rate, self.exponent])):
            raise ValueError("density parameters must be finite")

    @property
    def dimension(self) -> int:
        return len(self.scale)

    @property
    def smooth_exponential(self) -> bool:
        # kinds whose base folds into a single exponential: closed form in
        # every evaluator
        return self.kind in ("constant", "exponential")

    def scale_array(self) -> np.ndarray:
        return np.asarray(self.scale, dtype=complex)


@dataclass(frozen=True)
class BVFunction:
    """Locally-BV integrator: sorted jumps plus preset density pieces.

    table, if given, is the (q, d) table b_1, ..., b_q of a Dirichlet
    integrator: jump i (from 0) lies at log(i + 1) and has size
    b_{i mod q + 1} / (i + 1).  The jump arrays must hold exactly those
    jumps; the weighted sweeps then answer the full periods past a head of
    O(|c|) jumps in closed form (_jump_rows).
    """

    dimension: int
    jump_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    jump_sizes: np.ndarray | None = None  # None: no jumps, np.empty((0, dimension))
    pieces: tuple[DensityPiece, ...] = ()
    norm_kind: str = "euclidean"
    table: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.norm_kind!r}")
        times = np.asarray(self.jump_times, dtype=float)
        sizes = np.asarray(np.empty((0, self.dimension)) if self.jump_sizes is None
                           else self.jump_sizes, dtype=complex)
        if times.ndim != 1 or sizes.shape != (times.size, self.dimension):
            raise ValueError("jump arrays must be (n,) times with (n, dimension) sizes")
        if times.size:
            if not np.all(np.isfinite(times)) or times[0] < 0:
                raise ValueError("jump locations must be finite and >= 0")
            if np.any(times[1:] <= times[:-1]):
                raise ValueError("jump locations must be strictly increasing")
            if not np.all(np.isfinite(sizes)):
                raise ValueError("jump sizes must be finite")
        for piece in self.pieces:
            if piece.dimension != self.dimension:
                raise ValueError(
                    f"density scale dimension {piece.dimension} != integrator dimension {self.dimension}"
                )
        if self.table is not None:
            table = np.asarray(self.table, dtype=complex)
            if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] != self.dimension:
                raise ValueError("a coefficient table must be (q, dimension) with q >= 1")
            object.__setattr__(self, "table", table)
        object.__setattr__(self, "jump_times", times)
        object.__setattr__(self, "jump_sizes", sizes)
        object.__setattr__(self, "pieces", tuple(self.pieces))

    def _jumps_before(self, t: float) -> int:
        return int(np.searchsorted(self.jump_times, t, side="left"))

    def value_at(self, t: float, quad_tol: float = 1e-12) -> np.ndarray:
        """Cumulative (d,) value at t (left-continuous; value_at(0) == 0)."""
        return stieltjes_integral(self, 0.0, t, quad_tol)

    def variation_bound(self, t: float) -> float:
        """An upper bound on the total variation over [0, t), from closed forms alone.

        The jump norms over [0, t) plus, for each density piece clipped to
        [lo, hi) within [0, t), ||scale|| _base_modulus_bound(piece, lo, hi):
        int |base| in closed form for constant, exponential and power pieces,
        sup |base| times the length for damped_power.  vector_norm gives every
        norm, and density pieces count piece by piece, so where pieces overlap
        the triangle inequality holds the sum above.  The sum is rounded up by
        a relative _ROUND_UP, far more than the few ulps of each closed form,
        so it also bounds a rounded quadrature of the variation.  A bound that
        overflows is inf.
        """
        _refuse_nan(t)
        if t <= 0:
            return 0.0
        tv = float(np.sum(vector_norm(self.jump_sizes[:self._jumps_before(t)], self.norm_kind)))
        for piece in self.pieces:
            lo, hi = piece.start, min(piece.end, t)
            amp = float(vector_norm(piece.scale_array(), self.norm_kind))
            if hi > lo and amp:
                tv += amp * _base_modulus_bound(piece, lo, hi)
        return tv * (1.0 + _ROUND_UP)


def _base_modulus_bound(piece: DensityPiece, lo: float, hi: float) -> float:
    """An upper bound on int_lo^hi |base(s)| ds, lo < hi: the integral itself up to
    rounding but for damped_power, which takes sup |base| (hi - lo); inf where it
    overflows or diverges.

    |base(s)| = s^a e^{r s} with r = Re(rate) (a = 0 for constant and
    exponential pieces).  The closed forms take expm1, so they lose no digits as
    r or b = a + 1 tends to 0: int e^{r s} = e^{r lo} expm1(r L) / r, and
    int s^a = lo^b expm1(b log(hi/lo)) / b (log(hi/lo) at b = 0, hi^b / b at
    lo = 0).  The sup of s^a e^{r s} lies at an end, or at s = -a/r when a > 0 > r.
    """
    r, a = complex(piece.rate).real, piece.exponent
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if piece.kind == "constant" or (piece.kind == "exponential" and r == 0.0):
            return hi - lo
        if piece.kind == "exponential":
            return float(np.exp(r * lo) * np.expm1(r * (hi - lo)) / r)
        if piece.kind == "power":
            b = a + 1.0
            if lo == 0.0:
                return float(np.power(hi, b) / b)
            ell = float(np.log1p((hi - lo) / lo))  # log(hi/lo), to a few ulps as hi -> lo
            return float(np.power(lo, b) * np.expm1(b * ell) / b) if b else ell
        if math.isinf(hi):
            return math.inf
        s = np.asarray([lo, hi] + ([min(max(-a / r, lo), hi)] if a > 0.0 > r else []))
        peak = np.exp((a * np.log(s) if a else 0.0) + r * s)
        return float(np.max(peak) * (hi - lo))


# -- density-piece integration ---------------------------------------------------


def gauss_legendre_panels(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite 16-point Gauss-Legendre on equal panels of [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    s = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return s, w


def quad(f, lo, hi, abs_tol: float) -> np.ndarray:
    """int_lo[i]^hi[i] f(s) ds for n intervals at once, by adaptive Gauss-Kronrod (7/15).

    f(s, owner) gets an (m, 15) array of nodes and the (m,) indices of the
    intervals its rows belong to, and returns the (m, 15) values; a nonfinite
    value raises NonFiniteIntegrandError.  An interval with hi[i] = inf is integrated in u on
    [0, 1), with s = lo[i] + u / (1 - u).  Each subinterval (leaf) carries
    the estimate |K15 - G7|, and interval i is done once the sum over its
    leaves is at most max(abs_tol, _QUAD_REL_TOL |I_i|).  Each round bisects,
    in the intervals not yet done, the leaves whose estimate is at least their
    interval's mean (and always the worst one), up to _QUAD_LEAVES leaves per
    interval.  Intervals are taken in slices small enough that a full budget
    of leaves holds at most _MAX_BLOCK_ELEMENTS nodes.  Returns the (n,)
    Kronrod values; an interval that runs out of leaves raises QuadratureError, and an
    abs_tol that is not a finite number >= 0 raises ValueError.
    """
    if not 0.0 <= abs_tol < math.inf:  # a nan tolerance would pass every interval at once
        raise ValueError(f"quadrature tolerance must be finite and >= 0, not {abs_tol!r}")
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    step = max(1, _MAX_BLOCK_ELEMENTS // (15 * _QUAD_LEAVES))
    parts = [_quad_slice(f, lo[i:i + step], hi[i:i + step], i, abs_tol)
             for i in range(0, lo.size, step)]
    return np.concatenate(parts) if parts else np.zeros(0)


def _quad_slice(f, lo: np.ndarray, hi: np.ndarray, first: int, abs_tol: float) -> np.ndarray:
    """quad on the intervals first, first + 1, ... of the call, which f and errors see."""
    n = lo.size
    infinite = np.isinf(hi)

    def kronrod(a, b, owner):
        half = 0.5 * (b - a)
        x = (0.5 * (a + b))[:, None] + half[:, None] * _GK_NODES
        jac = np.repeat(half[:, None], 15, axis=1)
        rows = infinite[owner]
        if rows.any():
            u = x[rows]
            x[rows] = lo[owner[rows], None] + u / (1.0 - u)
            jac[rows] /= (1.0 - u) ** 2
        y = f(x, owner + first)
        _guard_finite(y, x)
        y = y * jac  # row sums, as a matmul may round a row by the product's size
        value = (y * _GK_KRONROD).sum(axis=1)
        return value, np.abs(value - (y * _GK_GAUSS).sum(axis=1))

    a, b, owner = np.where(infinite, 0.0, lo), np.where(infinite, 1.0, hi), np.arange(n)
    value, err = kronrod(a, b, owner)
    while True:
        total = np.bincount(owner, value.real, n)
        if np.iscomplexobj(value):
            total = total + 1j * np.bincount(owner, value.imag, n)
        err_sum = np.bincount(owner, err, n)
        tol = np.maximum(abs_tol, _QUAD_REL_TOL * np.abs(total))
        open_ = err_sum > tol
        if not open_.any():
            return total
        leaves = np.bincount(owner, minlength=n)
        room = _QUAD_LEAVES - leaves
        stuck = np.flatnonzero(open_ & (room <= 0))
        if stuck.size:
            i = int(stuck[0])
            raise QuadratureError(first + i, lo[i], hi[i], err_sum[i], tol[i])
        worst = np.zeros(n)
        np.maximum.at(worst, owner, err)
        split = open_[owner] & ((err * leaves[owner] >= err_sum[owner]) | (err == worst[owner]))
        if np.any(np.bincount(owner[split], minlength=n) > room):
            # bisect only each interval's `room` worst leaves
            idx = np.flatnonzero(split)
            idx = idx[np.lexsort((-err[idx], owner[idx]))]
            group = owner[idx]
            rank = np.arange(idx.size) - np.searchsorted(group, group)
            split[idx[rank >= room[group]]] = False
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate((a[split], mid))
        new_b = np.concatenate((mid, b[split]))
        new_owner = np.tile(owner[split], 2)
        new_value, new_err = kronrod(new_a, new_b, new_owner)
        keep = ~split
        a, b = np.concatenate((a[keep], new_a)), np.concatenate((b[keep], new_b))
        owner = np.concatenate((owner[keep], new_owner))
        value = np.concatenate((value[keep], new_value))
        err = np.concatenate((err[keep], new_err))


def _density_integrals(piece: DensityPiece, log_weight, lo, hi, quad_tol: float) -> np.ndarray:
    """int_lo[i]^hi[i] e^{log_weight(s, i)} base(s) ds for every i, in one call of quad.

    The weight enters by its exponent, and base(s) = s^a e^{rate s} (a = 0
    for constant and exponential pieces) is formed as s^a e^{log_weight + rate s},
    so that a base that grows under a weight that decays faster never
    overflows.  A singular power s^a, -1 < a < 0, is integrated in
    u = expm1(b log s) / b = (s^b - 1) / b, b = a + 1, where s^a ds = du leaves
    no singularity; unlike u = s^b it keeps its digits as b -> 0, where s^b
    tends to 1 on every range.  Failures name the piece's kind and the
    interval in s.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    a = piece.exponent if piece.kind in ("power", "damped_power") else 0.0
    singular = -1.0 < a < 0.0
    b = a + 1.0
    detail = f"density kind {piece.kind!r}"

    def integrand(x, owner):
        with np.errstate(divide="ignore"):  # u <= -1/b, rounded or not, is s = 0
            s = np.exp(np.log1p(np.maximum(b * x, -1.0)) / b) if singular else x
        v = np.exp(log_weight(s, owner) + piece.rate * s)
        if a and not singular:
            v *= np.power(s, a)
        _guard_finite(v, s, detail)
        return v

    with np.errstate(divide="ignore"):  # s = 0 maps to u = -1/b through log 0 = -inf
        u_lo, u_hi = np.expm1(b * np.log([lo, hi])) / b if singular else (lo, hi)
    try:
        values = quad(integrand, u_lo, u_hi, quad_tol)
    except QuadratureError as exc:
        i = exc.index
        raise QuadratureError(i, lo[i], hi[i], exc.err, exc.tol, detail) from None
    return values


def _piece_integrals(piece: DensityPiece, log_weight, slope, lo, hi,
                     quad_tol: float) -> np.ndarray:
    """int_lo[i]^hi[i] e^{log_weight(s, i)} base(s) ds for every i; hi[i] = inf allowed.

    log_weight(s, i) gets (m, q) points s and the ranges i of its rows, an
    index array (from quad) or slice(None) (every range, in order).  It is
    affine in s with slope slope[i], so with d = slope + rate the integrand
    is e^{w(a) + rate a} e^{d (s - a)} about any point a.  Constant and
    exponential pieces take that closed form: e^{w(a) + rate a}
    (e^{+-d L} - 1) / (+-d) on a range of length L, anchored at the end a
    where Re(d s) is larger, so that the segment factor stays bounded, and
    e^{w(lo) + rate lo} / (-d) on [lo, inf).  The other kinds take
    _density_integrals.  A range [lo, inf) is refused unless the integral
    converges absolutely: Re d < 0, or Re d = 0 and s^exponent decays
    faster than 1/s.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    d = np.asarray(slope, dtype=complex) + piece.rate
    unbounded = np.isinf(hi)
    power = piece.exponent if piece.kind in ("power", "damped_power") else 0.0
    wild = unbounded & ((d.real > 0) | ((d.real == 0) & (power >= -1.0)))
    if wild.any():
        i = np.argmax(wild)
        raise ValueError(f"integral over [{lo[i]:g}, inf) diverges in absolute value: "
                         f"|weight times density| ~ e^{{{d[i].real:g} s}} s^{power:g}")
    if not piece.smooth_exponential:
        return _density_integrals(piece, log_weight, lo, hi, quad_tol)
    rising = d.real > 0
    a = np.where(rising, hi, lo)
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow is caught by the finiteness guard
        head = np.exp(log_weight(a[:, None], slice(None))[:, 0] + piece.rate * a)
        vals = head * _exp_segment(np.where(rising, -d, d), np.where(unbounded, 0.0, hi - lo))
        vals[unbounded] = head[unbounded] / -d[unbounded]
    _guard_finite(vals, a, f"density kind {piece.kind!r}")
    return vals


def stieltjes_integral(bv: BVFunction, rate: complex, t: float,
                       quad_tol: float = 1e-10) -> np.ndarray:
    """int_0^t e^{rate s} dA(s) as a (d,) array: jumps at tau < t (strict) plus density pieces.

    Each piece takes _piece_integrals with slope rate: constant and
    exponential pieces their closed form, the others absolute accuracy
    ~quad_tol each.  This is the reference the other evaluators are tested
    against, so it keeps its own loop over the pieces rather than
    _add_pieces: it adds scale * value, which is not bitwise value * scale,
    since numpy's complex product may fuse one of the two cross products of
    its imaginary part into an FMA, and which one depends on the operand order.
    """
    rate = complex(rate)
    _refuse_nan(t)
    total = np.zeros(bv.dimension, dtype=complex)
    if t <= 0:
        return total
    idx = bv._jumps_before(t)
    if idx:
        with np.errstate(over="ignore", invalid="ignore"):
            # e^{0 s} = 1 exactly, so rate 0 takes no exponentials; overflow
            # is caught by the finiteness guard
            w = np.full(idx, 1.0 + 0j) if rate == 0 else np.exp(rate * bv.jump_times[:idx])
        _guard_finite(w, bv.jump_times[:idx], "jump weights")
        total += w @ bv.jump_sizes[:idx]
    for piece in bv.pieces:
        lo, hi = piece.start, min(piece.end, t)
        if hi > lo:
            total += piece.scale_array() * _piece_integrals(
                piece, lambda s, owner: rate * s, [rate], [lo], [hi], quad_tol)[0]
    return total


# -- overflow-safe grid evaluators ---------------------------------------------


def _add_pieces(bv: BVFunction, out: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                slope: np.ndarray, log_weight, quad_tol: float) -> None:
    """Add int e^{log_weight(s, i)} a(s) ds over [lo_i, hi_i) to out[i], for every i.

    out is (n, d); log_weight is affine in s with slope slope[i], and takes
    the ranges i as _piece_integrals gives them.  Each density piece is
    clipped to its support and takes one _piece_integrals call over the
    ranges it meets; its values times the scale are added in piece order.
    """
    for piece in bv.pieces:
        a, b = np.maximum(piece.start, lo), np.minimum(piece.end, hi)
        live = np.flatnonzero(b > a)
        if live.size:
            vals = _piece_integrals(piece, lambda s, owner: log_weight(s, live[owner]),
                                    slope[live], a[live], b[live], quad_tol)
            out[live] += vals[:, None] * piece.scale_array()[None, :]


def _density_segments(bv: BVFunction, c: np.ndarray, points: np.ndarray, start: float,
                      quad_tol: float, rows: np.ndarray, held: np.ndarray) -> None:
    """Add to rows[k, i] int e^{c_k s - Re(c_k) t_j} a(s) ds over row j = held[i]'s step.

    Row j steps from the previous point (start for j = 0) to t_j, clipped to
    within (_NEGLIGIBLE_LOG + 10) / |Re c_k| of t_j.  The weight is formed as
    e^{Re(c_k) (s - t_j) + i Im(c_k) s}, so that a large Re(c_k) t_j adds no
    rounding.  The steps are formed for the held rows only, and _add_pieces
    integrates those of every abscissa at once, with slope c_k.  held,
    sorted, must hold every row whose step meets a piece (ValueError names
    the first it leaves out).
    """
    xr = c.real
    phase = 1j * c.imag
    with np.errstate(divide="ignore", over="ignore"):
        # Re(c) = 0, or subnormal, reaches everywhere
        reach = (_NEGLIGIBLE_LOG + 10.0) / np.abs(xr)
    prev = np.concatenate(([start], points[:-1]))
    lo, hi = np.minimum(prev, points), np.maximum(prev, points)
    meets = np.zeros(points.size, dtype=bool)
    for piece in bv.pieces:
        meets |= np.maximum(lo, piece.start) < np.minimum(hi, piece.end)
    _refuse_unheld(meets, held, "meets a density piece")
    t, prev = points[held], prev[held]
    end = np.minimum(np.maximum(prev, t - reach[:, None]), t + reach[:, None])
    step_lo, step_hi = np.minimum(end, t), np.maximum(end, t)
    # slot k * held.size + i of the flat (m * held.size) ranges is (k, i)
    xk, pk, tk = np.repeat(xr, held.size), np.repeat(phase, held.size), np.tile(t, c.size)
    _add_pieces(bv, rows.reshape(-1, rows.shape[-1]), step_lo.ravel(), step_hi.ravel(),
                np.repeat(c, held.size),
                lambda s, i: xk[i, None] * (s - tk[i, None]) + pk[i, None] * s, quad_tol)


def _refuse_unheld(needed: np.ndarray, held: np.ndarray, step: str) -> None:
    """ValueError naming the first grid index that the mask needed marks and held leaves out:
    a row whose step takes a jump or meets a density piece needs a slot, or its sum would land
    in another row's."""
    missing = needed.copy()
    missing[held] = False
    if missing.any():
        raise ValueError(f"held rows leave out grid index {np.argmax(missing)}, "
                         f"whose step {step}")


def _jump_rows(bv: BVFunction, c: np.ndarray, points: np.ndarray, start: float,
               held: np.ndarray) -> np.ndarray:
    """Slot (k, i): sum of s_l e^{Re(c_k) (tau_l - t_j) + i Im(c_k) tau_l}, l in row j = held[i].

    Row j takes the jumps between t_{j-1} and t_j (t_{-1} = start), as
    [t_{j-1}, t_j) upward or [t_j, t_{j-1}) downward.  held, sorted, must
    hold every row that takes a jump (ValueError names the first it leaves
    out); the (m, held.size, d) result has a slot for each held row.  The
    rows' jumps together are one run of consecutive jumps, in row order
    upward and in reverse row order downward.  The plan gives each abscissa
    k and row j the jump ranges it sums, in run order: the row's range before
    the head, which is q ceil(_HEAD_SLOPE |c_k| + _HEAD_PERIODS) jumps for an
    integrator with a table where _range_sum_bound proves it, and past every
    jump otherwise; then, past the head, the row's range from the cut at
    e^-_NEGLIGIBLE_LOG on (upward; up to it downward), whose partial periods
    at either end are summed jump by jump and whose full periods take
    _period_sums.  _direct_sums sums every range that goes jump by jump.
    """
    times, table = bv.jump_times, bv.table
    out = np.zeros((c.size, held.size, bv.dimension), dtype=complex)
    bounds = np.searchsorted(times, np.concatenate(([start], points)), side="left")
    takes = bounds[1:] != bounds[:-1]
    _refuse_unheld(takes, held, "takes a jump")
    rows = np.flatnonzero(takes)  # the rows with a jump, in run order
    if bounds[-1] < bounds[0]:
        rows = rows[::-1]
    ends = bounds[rows], bounds[rows + 1]
    lo, hi = np.minimum(*ends), np.maximum(*ends)
    t, slot = points[rows], np.searchsorted(held, rows)
    head = np.full(c.size, times.size)
    if table is not None:
        periods = np.ceil(_HEAD_SLOPE * np.abs(c) + _HEAD_PERIODS)
        proven = _range_sum_bound(c, periods) <= _RANGE_SUM_TOL
        head[proven] = np.minimum(table.shape[0] * periods[proven], times.size)
    # each abscissa's ranges for each row, in run order: the row's range before the head, then
    # for a table the partial periods past it
    starts, stops = [np.broadcast_to(lo, (c.size, lo.size))], [np.minimum(hi, head[:, None])]
    if table is not None:
        q = table.shape[0]
        with np.errstate(divide="ignore"):
            reach = _NEGLIGIBLE_LOG / np.abs(c.real[:, None])  # Re(c) = 0 reaches everywhere
        # the cut starts a row's range upward and ends it downward
        first, stop = np.maximum(lo, head[:, None]), np.broadcast_to(hi, (c.size, lo.size))
        if bounds[-1] < bounds[0]:
            stop = np.minimum(stop, np.searchsorted(times, t + reach, side="right"))
        else:
            first = np.maximum(first, np.searchsorted(times, t - reach))
        # the full periods are the jumps [a, b): jump l has n = l + 1, q m < n <= q (m + 1);
        # the partial periods are [first, a) and [b, stop), or all of [first, stop)
        a, b = -(-first // q) * q, stop // q * q
        full = b > a
        starts += [first, np.where(full, b, stop)]
        stops += [np.where(full, a, stop), stop]
    _direct_sums(bv, c, t, slot, np.stack(starts, axis=2), np.stack(stops, axis=2), out)
    if table is not None and full.any():
        k, i = np.nonzero(full)
        out[k, slot[i]] += _period_sums(table, c, head // q, k, t[i], a[full] // q, b[full] // q)
    return out


def _direct_sums(bv: BVFunction, c: np.ndarray, t: np.ndarray, slot: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, out: np.ndarray) -> None:
    """Add to out[k, slot[i]] the sum of s_l e^{Re(c_k) (tau_l - t_i) + i Im(c_k) tau_l} over
    the jumps l of each range [lo[k, i, v], hi[k, i, v]), one jump at a time.

    Each abscissa's ranges, row by row and range by range, come in the
    order of their jumps; a range with hi <= lo is empty.  Each abscissa's
    jumps are walked in chunks, the windows [f, f + _TILE_JUMPS) of their
    positions in that order, so no temporary grows with the number of
    jumps.  A range is split at the chunk edges, so where an abscissa's
    ranges are one run of consecutive jumps from jump f, as its ranges
    before the head are, the edges are f + p _TILE_JUMPS.  In a chunk each
    jump is weighted once: e^{Re(c) (tau - t)}, a real exponential for a
    real abscissa, or one complex exponential with the phase Im(c) tau, and
    zeroed below e^-_NEGLIGIBLE_LOG.  The products with the chunk's sizes,
    a contiguous (d, n) copy, are summed per part by np.add.reduceat along
    the jumps, and each row adds its parts in order.  numpy's pairwise
    summation groups a part's terms by its length, so the last bits of a
    row that straddles a chunk edge depend on _TILE_JUMPS.
    """
    times, sizes, (sets, width) = bv.jump_times, bv.jump_sizes, lo.shape[1:]
    n = np.maximum(hi - lo, 0).reshape(c.size, sets * width)
    # each range's offset among its abscissa's jumps, and the chunks it meets there
    off = np.cumsum(n, axis=1) - n
    live = np.flatnonzero(n)  # the ranges that hold a jump
    n, off = n.ravel()[live], off.ravel()[live]
    first = off // _TILE_JUMPS
    count = (off + n - 1) // _TILE_JUMPS - first + 1
    r = np.repeat(np.arange(live.size), count)  # the range of each part
    chunk = first[r] + np.arange(r.size) - np.repeat(np.cumsum(count) - count, count)
    off = off[r]
    part_lo = np.maximum(off, chunk * _TILE_JUMPS)
    part_n = np.minimum(off + n[r], (chunk + 1) * _TILE_JUMPS) - part_lo
    part_lo += lo.ravel()[live[r]] - off
    k, i = np.divmod(live[r] // width, sets)  # the abscissa and row of each part
    cuts = np.flatnonzero((np.diff(k) != 0) | (np.diff(chunk) != 0)) + 1
    edges = [0, *cuts.tolist(), r.size] if r.size else []
    del n, off, live, first, count, r, chunk, cuts  # only the parts are read from here on
    for p0, p1 in zip(edges, edges[1:]):
        m, kk, rows = part_n[p0:p1], k[p0], i[p0:p1]
        heads = np.cumsum(m) - m
        idx = np.arange(heads[-1] + m[-1]) + np.repeat(part_lo[p0:p1] - heads, m)
        # np.take, many times faster than fancy indexing here; the sizes as a contiguous (d, n)
        terms, tau = np.ascontiguousarray(np.take(sizes, idx, axis=0).T), np.take(times, idx)
        arg = (tau - np.repeat(t[rows], m)) * c.real[kk]
        w = np.exp(arg + 1j * (tau * c.imag[kk])) if c.imag[kk] else np.exp(arg)
        w[arg < -_NEGLIGIBLE_LOG] = 0.0
        np.multiply(w, terms, out=terms)
        np.add.at(out, (kk, slot[rows]), np.add.reduceat(terms, heads, axis=1).T)
        del idx, terms, tau, arg, w  # before the next chunk forms its own


def _period_sums(table: np.ndarray, c: np.ndarray, periods: np.ndarray, k: np.ndarray,
                 t: np.ndarray, m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """(n, d): e^{-Re(c) t_i} sum_n b_n n^{c-1}, c = c_{k_i}, over n = q m + r, m0_i <= m < m1_i.

    That is the weighted jump sum of the full periods m0_i to m1_i - 1 of
    the (q, d) table at the abscissa c_{k_i}, each weight formed about t_i;
    k is sorted and m0_i >= periods[k_i] >= 2 |c_{k_i}|.  Euler-Maclaurin
    (Johansson 2015) on h(m) = sum_{r=1..q} b_r (q m + r)^{c-1} gives the sum
    as G(m1) - G(m0), G(M) = H(M) - h(M) / 2 + sum_j B_2j / (2j)!
    h^(2j-1)(M) with H' = h.  Each term, expanded in r / (q M) about
    E = e^{Re(c) (log N - t)} N^{i Im(c)}, N = q M, makes
    q G(M) = E (mu_0 / c + sum_p binom(c - 1, p - 1) lambda_p / M^p)
    with the scaled moments mu_k = sum_r b_r (r/q)^k and
    lambda = _EM_MATRIX mu.  The mu_0 / c part of G(m1) - G(m0) takes the
    closed form mu_0 E (e^{+-c L} - 1) / (+-c), L = log(m1 / m0), anchored at
    the end where |E| is larger, so a mean-zero table (mu_0 = 0) and a small
    c lose nothing to cancellation.  The rest is a polynomial in h / M <= 1,
    h = periods[k], with the bounded coefficients
    binom(c - 1, p - 1) lambda_p / h^(p-1), one real product per abscissa.
    _range_sum_bound bounds what the _EM_TERMS Bernoulli terms and the
    degree _EM_DEGREE leave out.
    """
    q, d = table.shape
    # einsum, not matmul: a first BLAS call would map its buffers into the process
    mu = np.einsum("kr,rd->kd", (np.arange(1, q + 1) / q) ** np.arange(_EM_DEGREE + 1)[:, None],
                   table)
    lam = np.einsum("pk,kd->pd", _EM_MATRIX, mu)
    ends = np.stack((m0, m1), axis=1).astype(float)
    powers = np.empty((k.size, 2, _EM_DEGREE))  # (h / M)^(p-1)
    powers[..., 0] = 1.0
    powers[..., 1:] = (periods[k, None] / ends)[..., None]
    np.cumprod(powers, axis=2, out=powers)
    acc = np.empty((k.size, 2, 2 * d))
    p = np.arange(1.0, _EM_DEGREE)
    cuts = np.searchsorted(k, np.arange(c.size + 1)).tolist()
    for j, (i0, i1) in enumerate(zip(cuts, cuts[1:])):
        if i1 > i0:
            coef = np.cumprod(np.concatenate(([1.0], (c[j] - p) / (p * periods[j]))))
            terms = (coef[:, None] * lam[1:]).view(float)  # (P, 2d)
            acc[i0:i1] = np.einsum("iep,pf->ief", powers[i0:i1], terms)
    ck = c[k]
    log_n = np.log(q * ends)
    e = np.exp(ck.real[:, None] * (log_n - t[:, None]) + 1j * (ck.imag[:, None] * log_n))
    g = (e / ends)[..., None] * acc.view(complex)  # q G(M) - mu_0 E / c at M = m0, m1
    rising = ck.real > 0
    anchor = np.where(rising, e[:, 1], e[:, 0])
    seg = _exp_segment(np.where(rising, -ck, ck), np.log1p((ends[:, 1] - ends[:, 0]) / ends[:, 0]))
    # lam[:1], not lam[0]: numpy rounds a 1-d operand broadcast against one lone pair's
    # product unlike the same pair among others
    return (g[:, 1] - g[:, 0] + (anchor * seg)[:, None] * lam[:1]) / q


def _range_sum_bound(c: np.ndarray, periods: np.ndarray) -> np.ndarray:
    """For each abscissa c: a bound on the remainder of _period_sums on a range from
    m0 >= periods on, relative to the range's jump mass, in the euclidean norm.

    The mass is e^{-x t} sum ||b_n|| n^{x-1} over the range, x = Re c (the
    jump norms ||b_n / n|| up to their rounding), and u = 1 / periods.
    Euler-Maclaurin leaves |B_2J| / (2J)! int ||h^(2J)||, J = _EM_TERMS; as
    ||h^(2J)(m)|| <= |(c-1) ... (c-2J)| u^2J sum_r ||b_r|| (q m + r)^{x-1},
    and a period's integral is at most e^{|x-1| u} times its sum, that is
    em = |B_2J| / (2J)! |(c-1) ... (c-2J)| u^2J e^{|x-1| u}.
    Truncating at degree P = _EM_DEGREE leaves, at each end N = q M, at most
    N^{x-1} e^{-x t} sum_r ||b_r|| (an end period's mass times
    e^{|x-1| u / (1 - u)}) times
    1.5 T_P(|c-1|) + sum_j |B_2j| / (2j)! |(c-1) ... (c-2j+1)| u^(2j-1) T_{P-2j+1}(|c-2j|),
    with T_K(A) = sum_{k >= K} binom(A + k - 1, k) u^k, which bounds the
    tail of sum_k |binom(a, k)| u^k for |a| = A.  Its terms fall by
    u max(1, (A + K) / (K + 1)) < 1 past the first, which is at most
    ((A + K - 1) u)^K / K!.  The bound is twice the ends' part, plus em.
    One that cannot be formed is inf or nan, and proves nothing.
    """
    j = np.arange(1, _EM_TERMS + 1)
    order = np.concatenate(([_EM_DEGREE], _EM_DEGREE - 2 * j + 1))
    log_factorial = np.cumsum(np.log(np.arange(1.0, _EM_DEGREE + 1)))[order - 1]
    log_beta = np.log(np.abs(_BERNOULLI))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = 1.0 / periods
        spread = np.abs(c.real - 1.0) * u
        a = np.abs(c[:, None] - np.concatenate(([1.0], 2.0 * j)))  # |c - 1|, |c - 2j|
        # log |(c-1) ... (c-k)|, k = 0..2J
        log_falling = np.cumsum(np.log(np.abs(np.concatenate(
            (np.ones((c.size, 1)), c[:, None] - 1.0 - np.arange(2 * _EM_TERMS)), axis=1))),
            axis=1)
        ratio = u[:, None] * np.maximum(1.0, (a + order) / (order + 1))
        tails = np.where(ratio < 1.0, np.exp(order * np.log((a + order - 1) * u[:, None])
                                             - log_factorial) / (1.0 - ratio), math.inf)
        weights = np.concatenate((np.full((c.size, 1), 1.5), np.exp(
            log_beta + log_falling[:, 2 * j - 1] + (2 * j - 1) * np.log(u)[:, None])), axis=1)
        taylor = 2.0 * np.exp(spread / (1.0 - u)) * np.sum(weights * tails, axis=1)
        em = np.exp(log_beta[-1] + log_falling[:, 2 * _EM_TERMS] + 2 * _EM_TERMS * np.log(u)
                    + spread)
    return em + taylor


def _decay_scan(rows: np.ndarray, xr: np.ndarray, points: np.ndarray, held: np.ndarray) -> None:
    """rows[k]_j <- sum_{i <= j} e^{xr_k (t_i - t_j)} rows[k]_i at each j of held, in place.

    rows is (m, held.size, d): for each rate xr_k, with xr_k (t_j - t_i) >= 0,
    it holds the rows at the sorted grid indices held, and every other row is
    zero; each rows[k] becomes the rows of the scan at held, bitwise those of
    the scan over every row (held = arange(n)).  This is the recurrence
    out_j = e^{xr (t_{j-1} - t_j)} out_{j-1} + rows_j as a blocked prefix scan
    (Blelloch 1990).  A block holds the grid rows whose xr (t - t_0) falls in
    one cell of width _SCAN_SPAN, cut on the full grid.  Inside a block
    anchored at row a the rows are scaled by grow_i = e^{xr (t_i - t_a)} <=
    e^_SCAN_SPAN, summed by np.cumsum and scaled back; the last row of a
    block carries into the next.  The blocks end with the one that holds the
    last held row, h = held[-1]: no slot reads a carry past it.  Every rate
    whose grid up to there fits one block (xr (t_h - t_0) < _SCAN_SPAN) takes
    one shared np.cumsum along the rows; only the others walk their blocks,
    and each walk stops at that last block.  A zero row would only add exact
    zeros to its block's cumsum, so only the held rows are summed, and the
    carry into a block comes from the last held row before it, if that lies
    in the block before, or else from the carry into the block before alone.
    The rows of each rate are first divided by a power of two within a
    factor 2 of their largest entry (1 if that is below 1), so that the scaled
    sums cannot overflow however large the rows are.  Anchoring rounds the two
    exponents xr (t - t_a) once each, which costs at most about
    2 eps _SCAN_SPAN relative per term.

    So a zero row j after a row i, with only zero rows between, is never
    larger in any norm than out_i.  In i's block, out_j = acc_i fl(1/grow_j)
    unit (numpy divides a complex by a real as a product with the real's
    reciprocal), and grow_j >= grow_i; a block start a takes the carry
    fl(e'/grow_{a-1}) acc_{a-1} with e' = e^{xr (t_{a-1} - t_a)} <= 1 and
    grow_a = 1.  Rounding is monotone and np.exp does not decrease, so each
    component of out_j is at most that of out_i in modulus, and a sup over
    the grid is first reached on a row that is not zero.
    """
    parts = rows.view(float)
    # the largest |entry| of each rate's rows, without an array of moduli
    peak = np.maximum(parts.max(axis=(1, 2), initial=0.0), -parts.min(axis=(1, 2), initial=0.0))
    live = peak != 0.0
    rows[~live] = 0.0
    if not live.any():
        return
    # not below 1: complex division by a subnormal power of two gives inf
    unit = np.ldexp(1.0, np.maximum(np.frexp(peak)[1] - 1, 0))
    # no slot lies past the last held row, so nothing reads a block or carry after it
    points = points[:held[-1] + 1]
    # xr (t - t_0) is monotone along the grid, so its last cell is its largest
    one = live & (np.floor(xr * (points[-1] - points[0]) / _SCAN_SPAN) == 0)
    batch = np.flatnonzero(one)
    if batch.size:
        grow = np.exp(np.multiply.outer(xr[batch], points[held] - points[0]))[:, :, None]
        acc = rows[batch]
        acc /= unit[batch, None, None]
        acc *= grow
        np.cumsum(acc, axis=1, out=acc)
        acc /= grow
        acc *= unit[batch, None, None]
        rows[batch] = acc
    for k in np.flatnonzero(live & ~one).tolist():
        x, acc = xr[k], rows[k]
        cell = np.floor(x * (points - points[0]) / _SCAN_SPAN)
        starts = np.flatnonzero(np.diff(cell, prepend=-1.0))
        block = np.searchsorted(starts, held, side="right") - 1
        grow = np.exp(x * (points[held] - points[starts[block]]))[:, None]
        acc /= unit[k]
        acc *= grow
        # the carry into the block at a is out_{a-1} e^{xr (t_{a-1} - t_a)}, and
        # out_{a-1} = acc_{a-1} / grow_{a-1}, grow_{a-1} anchored at the block before
        before = np.maximum(starts - 1, 0)
        anchor = starts[np.maximum(np.arange(starts.size) - 1, 0)]
        link = (np.exp(x * (points[before] - points[starts]))
                / np.exp(x * (points[before] - points[anchor])))
        # the held slots [first_b, first_{b+1}) of each block b
        first = np.searchsorted(held, starts).tolist() + [held.size]
        carry = np.zeros(rows.shape[2:], dtype=rows.dtype)  # acc_{a-1}
        for a, i, e, f in zip(starts.tolist(), first, first[1:], link):
            if e > i:
                np.cumsum(acc[i:e], axis=0, out=acc[i:e])
                if a:
                    acc[i:e] += f * carry
                carry = acc[e - 1]
            elif a:
                carry = 0.0 + f * carry  # as a zero cumsum adds it, to the sign of a zero
        acc /= grow
        acc *= unit[k]


def _weighted_sweep(bv: BVFunction, c: np.ndarray, points: np.ndarray, start: float,
                    quad_tol: float, held: np.ndarray) -> np.ndarray:
    """Rows (k, i): int e^{c_k s - Re(c_k) t_j} dA(s) over the s between start and t_j, j = held[i].

    One call sweeps the (m,) rates c over the (n,) points and returns the
    (m, held.size, d) rows at the sorted indices held, which must hold every
    row whose step takes a jump or meets a density piece.  The range is
    [start, t_j) while the points ascend from start and [t_j, start) while
    they descend to it.  The weights have modulus <= 1 when
    Re(c_k) (s - t_j) <= 0 on the range.  The jumps and the density between
    consecutive points give each held row's own sum (_jump_rows,
    _density_segments), leaving out what lies over _NEGLIGIBLE_LOG / |Re c_k|
    (jumps) or that plus 10 (density) from t_j; the blocked scan _decay_scan
    then adds each row to the previous one rescaled by
    e^{Re(c_k) (t_prev - t_j)}, for every abscissa in one call, back into the
    same array.  A nonfinite result raises NonFiniteIntegrandError.
    """
    _refuse_nan(start, points)
    rows = _jump_rows(bv, c, points, start, held)
    if bv.pieces:
        _density_segments(bv, c, points, start, quad_tol, rows, held)
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow is caught by the finiteness guard
        _decay_scan(rows, c.real, points, held)
    _guard_finite(rows, points[held][:, None], "weighted sweep")
    return rows


def _abscissas(z, caller: str) -> np.ndarray:
    """z as a 1-d complex array with Re(z) >= 0."""
    z = one_d(z, complex, caller)
    if np.any(z.real < 0):
        raise ValueError(f"{caller} requires Re(z) >= 0")
    return z


def _rising_rows(bv: BVFunction, t_grid: np.ndarray, heads=()) -> np.ndarray:
    """The sorted grid indices where ||G_j|| of weighted_partial_grid can rise.

    They are row 0, the rows heads, and each row j whose step [t_{j-1}, t_j)
    (t_{-1} = 0) takes a jump or meets a density piece's support.  Between
    two of them G only decays, and no row there is larger in any norm than
    the last of them before it (see _decay_scan).
    """
    prev = np.concatenate(([0.0], t_grid[:-1]))
    taken = np.searchsorted(bv.jump_times, np.concatenate(([0.0], t_grid)), side="left")
    rising = np.diff(taken) > 0
    for piece in bv.pieces:
        rising |= np.maximum(prev, piece.start) < np.minimum(t_grid, piece.end)
    rising[:1] = True
    rising[np.asarray(heads, dtype=int)] = True
    return np.flatnonzero(rising)


def weighted_partial_grid(bv: BVFunction, z, t_grid: np.ndarray, quad_tol: float = 1e-10,
                          held: np.ndarray | None = None) -> np.ndarray:
    """G_j = int_0^{t_j} e^{z s - Re(z) t_j} dA(s) on an ascending grid, at the rows held.

    Equals e^{-Re(z) t_j} int_0^{t_j} e^{zs} dA(s); every term has modulus
    <= its jump/density mass, so the result is finite for any Re(z) >= 0.
    The sweep walks the grid upward from 0 with c = z.  An (m,) array of z
    gives the (m, len(held), d) rows, all from one sweep.  held lists sorted
    grid indices (every row if None) and must hold every row of
    _rising_rows(bv, t_grid); each of its rows is bitwise the full sweep's.
    A held list that leaves out a row whose step takes a jump or meets a
    density piece raises ValueError naming the first such grid index.
    """
    z = _abscissas(z, "weighted_partial_grid")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or (t_grid.size and (np.any(np.diff(t_grid) < 0) or t_grid[0] < 0)):
        raise ValueError("t_grid must be ascending and nonnegative")
    held = np.arange(t_grid.size) if held is None else held
    return _weighted_sweep(bv, z, t_grid, 0.0, quad_tol, held)


def weighted_tail_grid(bv: BVFunction, z, t_grid: np.ndarray, v_max: float,
                       quad_tol: float = 1e-10) -> np.ndarray:
    """H_j = e^{Re(z) t_j} int_{t_j}^{v_max} e^{-z s} dA(s) on an ascending grid.

    Computed as int e^{-z s + Re(z) t_j} dA(s); all weights have modulus <= 1
    when Re(z) >= 0.  Jumps with tau in [t_j, v_max) contribute.  The sweep
    walks the grid downward from v_max with c = -z.  An (m,) array of z
    gives the (m, n, d) rows, all from one sweep.
    """
    z = _abscissas(z, "weighted_tail_grid")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or (t_grid.size and np.any(np.diff(t_grid) < 0)):
        raise ValueError("t_grid must be ascending")
    if t_grid.size and v_max < t_grid[-1]:
        raise ValueError("v_max must dominate the largest grid point")
    return _weighted_sweep(bv, -z, t_grid[::-1], float(v_max), quad_tol,
                           np.arange(t_grid.size))[:, ::-1]


# -- contour-facing evaluators ---------------------------------------------------


def _exp_segment(delta, length) -> np.ndarray:
    """(e^{delta L} - 1) / delta, accurate for every delta L, and L where |delta L| < 2^-60.

    e^{a+ib} - 1 = expm1(a) cos b - 2 sin^2(b/2) + i e^a sin b is a complex
    expm1 with no cancellation as a + ib -> 0 (Higham 2002).  Below 2^-60 the
    quotient is L (1 + delta L / 2 + ...) = L to within eps, and dividing by
    a subnormal complex delta would overflow.
    """
    delta = np.asarray(delta, dtype=complex)
    x = delta * length
    a, b = x.real, x.imag
    em1 = np.expm1(a) * np.cos(b) - 2.0 * np.sin(0.5 * b) ** 2 + 1j * (np.exp(a) * np.sin(b))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return np.where(np.abs(x) < 2.0 ** -60, length, em1 / delta)


def _jump_exp_sum(tau: np.ndarray, sizes: np.ndarray, z: np.ndarray, t: float) -> np.ndarray:
    """sum_k s_k e^{-z(tau_k - t)} at every node z, by block-Taylor moments.

    Needs ascending tau and Re(z (tau_k - t)) >= 0 for every node and jump
    (up to the callers' 1e-12 slack), so each block factor e^{-z(c_b - t)}
    has modulus <= 1.  Returns the (n, d) sums; jump_sum_remainder(sizes)
    bounds the truncation error of every entry, in any norm.
    """
    values = np.zeros((z.size, sizes.shape[1]), dtype=complex)
    if tau.size == 0 or z.size == 0:
        return values
    z_max = float(np.max(np.abs(z)))
    half = _TAYLOR_RADIUS / max(z_max, np.finfo(float).tiny)
    # the cells ascend with tau, so the last one is the largest
    if not math.isfinite((tau[-1] - tau[0]) / (2.0 * half)):
        raise ValueError(f"jump-sum blocks overflow: max |z| = {z_max:g}, "
                         f"jumps span [{tau[0]:g}, {tau[-1]:g}]")
    starts = np.flatnonzero(np.diff(np.floor((tau - tau[0]) / (2.0 * half)), prepend=-1.0))
    counts = np.diff(np.append(starts, tau.size))
    centres = 0.5 * (tau[starts] + tau[starts + counts - 1])
    u = tau - np.repeat(centres, counts)
    u /= half  # in [-1, 1]
    # moments[b, p] = sum over block b of s_k u_k^p / p!, with one jump-sized
    # term array updated in place
    moments = np.empty((starts.size, _TAYLOR_ORDER + 1, sizes.shape[1]), dtype=complex)
    term = sizes.copy()
    for p in range(_TAYLOR_ORDER + 1):
        moments[:, p] = np.add.reduceat(term, starts, axis=0)
        term *= (u / (p + 1))[:, None]
    moments = moments.reshape(starts.size, -1)
    gap = centres - t  # c_b - t = gap + gap_err exactly (Knuth's two-sum)
    gap_err = (centres - (gap - (gap - centres))) + (-t - (gap - centres))
    chunk = max(1, _MAX_BLOCK_ELEMENTS // max(moments.shape))
    for i0 in range(0, z.size, chunk):
        zc = z[i0:i0 + chunk]
        # near[i, p] = sum_b e^{-z_i(c_b - t)} moments[b, p]; Horner in -z_i h/2
        near = (_block_factors(zc, gap, gap_err) @ moments).reshape(
            zc.size, _TAYLOR_ORDER + 1, -1)
        w = (-zc * half)[:, None]
        acc = near[:, _TAYLOR_ORDER]
        for p in range(_TAYLOR_ORDER - 1, -1, -1):
            acc = acc * w + near[:, p]
        values[i0:i0 + chunk] = acc
    return values


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo with hi and lo of at most 26 significant bits each (Dekker)."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _block_factors(zc: np.ndarray, gap: np.ndarray, gap_err: np.ndarray) -> np.ndarray:
    """e^{-z_i (gap_b + gap_err_b)} for every node and block, phase accurate to ~eps.

    Rounding the phase Im(z) gap (up to thousands of radians) alone costs
    eps |Im(z) gap|, so its rounding error err (Dekker's exact product error
    plus gap_err) is applied as the rotation 1 + i err; the dropped err^2/2
    stays below eps up to phases of about 1e8 radians.  The modulus
    e^{-Re(z) gap} <= 1 needs no such care: its error is at most eps.
    """
    arg = -zc[:, None] * gap[None, :]
    y = -zc.imag
    if max(float(np.max(np.abs(y))), float(np.max(np.abs(gap)))) > 2.0 ** 500:
        return np.exp(arg)  # the split would overflow
    yh, yl = _split(y)
    gh, gl = _split(gap)
    err = np.multiply.outer(yh, gh) - arg.imag  # arg.imag is fl(y gap)
    err += np.multiply.outer(yh, gl)
    err += np.multiply.outer(yl, gh)
    err += np.multiply.outer(yl, gl)
    err += np.multiply.outer(y, gap_err)
    factors = np.exp(arg)
    factors *= 1 + 1j * err
    return factors


def jump_sum_remainder(sizes: np.ndarray) -> float:
    """Truncation bound of the block-Taylor jump sum over these (n, d) jump sizes.

    Holds for every node and in either norm kind: sum_k ||s_k||_2 (vector_norm's
    euclidean norm, so sizes near 1e+-200 neither vanish nor overflow) times
    rho^{P+1} e^rho / (P+1)!.
    """
    return _TAYLOR_REMAINDER * float(np.sum(vector_norm(sizes, "euclidean")))


def _exp_range_integral(bv: BVFunction, z: np.ndarray, t: float, lo: float, hi,
                        quad_tol: float) -> np.ndarray:
    """int_[lo, hi_i) e^{-z_i(s-t)} dA(s) for an (n,) array of z; hi = inf allowed.

    hi is one end for every node or an (n,) array of ends, one per node.
    Needs Re(z (s - t)) >= 0 on the range, the jump kernel's precondition:
    [t, inf) takes Re z >= 0 and [0, t) takes Re z <= 0.  The jumps are cut
    at each node's end; the kernel runs once on each run of jumps between two
    consecutive distinct cuts, over the nodes whose range covers that run, so
    the moments of every jump are formed once.  _add_pieces integrates the
    density over every node's range, with slope -z.
    """
    _refuse_nan(t)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), z.shape)
    times, sizes = bv.jump_times, bv.jump_sizes
    i0 = int(np.searchsorted(times, lo, side="left"))
    cuts = np.maximum(np.searchsorted(times, hi, side="left"), i0)
    out = np.zeros((z.size, bv.dimension), dtype=complex)
    start = i0
    for cut in sorted(set(cuts.tolist())):
        if cut > start:
            reach = cuts >= cut
            out[reach] += _jump_exp_sum(times[start:cut], sizes[start:cut], z[reach], t)
            start = cut
    _add_pieces(bv, out, np.full(z.size, float(lo)), hi, -z,
                lambda s, i: z[i, None] * (t - s), quad_tol)
    return out


def exp_tail_integral(bv: BVFunction, z_nodes: np.ndarray, t: float,
                      quad_tol: float = 1e-10) -> np.ndarray:
    """T(z) = int_t^inf e^{-z(s-t)} dA(s) for an (n,) array of z, Re z >= 0.

    Equals e^{tz}(f(z) - f_t(z)) for the improper transform f.  Jumps at
    tau >= t contribute; density pieces may extend to infinity provided they
    decay (rate < min Re z over the nodes).
    """
    z = np.asarray(z_nodes, dtype=complex).ravel()
    if np.any(z.real < -1e-12):
        raise ValueError("exp_tail_integral requires Re(z) >= 0")
    return _exp_range_integral(bv, z, t, t, math.inf, quad_tol)


def exp_partial_integral(bv: BVFunction, z_nodes: np.ndarray, t: float,
                         quad_tol: float = 1e-10) -> np.ndarray:
    """P(z) = int_0^t e^{z(t-s)} dA(s) = e^{tz} f_t(z), stable for Re z <= 0."""
    z = np.asarray(z_nodes, dtype=complex).ravel()
    if np.any(z.real > 1e-12):
        raise ValueError("exp_partial_integral requires Re(z) <= 0")
    return _exp_range_integral(bv, z, t, 0.0, t, quad_tol)
