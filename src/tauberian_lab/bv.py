"""Vector-valued integrators of locally bounded variation and their Stieltjes integrals.

An integrator is a finite list of jumps (strictly increasing locations, vector
sizes) plus piecewise smooth densities drawn from a small preset family.  The
cumulative value is normalized to be left-continuous with value 0 at 0, so a
jump at location tau contributes to integrals over [0, t) exactly when tau < t.

Two evaluation surfaces coexist on purpose:

* ``stieltjes_integral`` integrates a literal integrand, one exponential per
  jump (none for a rate-0 integrand such as ``value_at``'s).  Fine for
  moderate arguments, and the reference semantics everything else is tested
  against.
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
take a scalar z, giving (n, d), or an (m,) array of z, giving (m, n, d).
The sweep needs no direction flag: each row covers the range between the
start and its point, [start, t_j) or [t_j, start), so the order of the
points it is handed is the direction.  The four public evaluators check
their input and call these bodies.

The sweep has no loop over its rows.  Each row first gets its own step, the
jumps and density between the previous point and its own.  The layout of
the jumps (which row each jump belongs to, and its tau - t_j) is built once
per call; then, for each abscissa, every jump is weighted once and the
weights are summed per row.  Constant and exponential pieces take their
closed form for every abscissa and row at once, and every other piece takes
one quad call per sweep call, over the rows of all its abscissas.  A blocked
prefix scan (Blelloch 1990) then adds up the steps with the decay
e^{Re(c) (t_i - t_j)}.  A block spans at most _SCAN_SPAN = 256 in Re(c) t;
inside it the steps are scaled by e^{Re(c) (t_i - t_block)} <= e^256,
summed by np.cumsum and scaled back, and a carry passes from one block to
the next, so there are about |Re c| span(t) / 256 blocks; the scan runs once
per abscissa, back into the rows array.  The two rounded exponents cost
each term at most about 2 eps 256 relative (under 6e-14).
The steps are divided by a power of two near their largest entry first, so
no scaled sum overflows, and a result that is still not finite raises.

The contour evaluators ``exp_tail_integral`` and ``exp_partial_integral``,
and the improper transform, share one jump-sum kernel for
sum_k s_k e^{-z(tau_k - t)} over N jumps and many nodes z.  It groups the
sorted jumps into blocks of width h = 2/max|z|, forms per-block Taylor
moments of order P = 20 about each block's centre c_b, and evaluates
sum_b e^{-z(c_b - t)} sum_p (-z h/2)^p m_{b,p}, where every factor has
modulus <= 1.  Truncation adds at most
sum_k ||s_k|| e / 21! (<= 2^-60 sum_k ||s_k||) to each entry, a bound the
kernel returns and ``CauchyReport.remainder_bound`` carries.  The block
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
w is affine in s with slope c (phi.rate in ``stieltjes_integral``, the rate
c of a sweep, -z on the contour).  Constant and exponential pieces (rate r)
take one closed form, with d = c + r: e^{w(a) + r a} times the complex expm1
of ``_exp_segment`` on a bounded range, anchored at the end a where
Re(d s) is larger, and e^{w(lo) + r lo} / (-d) on [lo, inf), which is
refused unless Re d < 0.  The other kinds take ``quad`` (on [lo, inf) only
where Re d < 0, or Re d = 0 and s^a decays faster than 1/s), one vectorised
adaptive Gauss-Kronrod (7/15) routine that integrates many intervals per
call: all the contour nodes of a piece, or all the (abscissa, row)
intervals of a weighted sweep call.  The integrand is
formed as s^a e^{log weight + rate s}, so a growing base under a faster
decaying weight does not overflow.
Each interval converges on its own, when the sum of |K15 - G7| over its
subintervals is at most max(quad_tol, 1e-12 |I|); each round bisects the
subintervals whose estimate is at least their interval's mean.  A power s^a with -1 < a < 0 is
integrated in u = s^{a+1}, which removes the endpoint singularity, and
[lo, inf) is mapped onto [0, 1).  An interval that has used 400 subintervals
without converging raises ``QuadratureError``, an ArithmeticError that names
the interval and the density kind; no unconverged value is ever returned.
A call takes its intervals in slices of _MAX_BLOCK_ELEMENTS / (15 * 400), so
that its node arrays stay bounded however many intervals it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .vectors import NORM_KINDS, vector_norm

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
# width in Re(c) t of one block of the weighted sweep's scan: it bounds the
# scaled rows by e^256, far inside float64, and the rounding of a term's two
# exponents by about 2 eps 256 relative; a wider block saves few block steps
_SCAN_SPAN = 256.0

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
class Integrand:
    """Continuous integrand coefficient * e^{rate s}: exponentials and constants."""

    rate: complex = 0j
    coefficient: complex = 1.0 + 0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", complex(self.rate))
        object.__setattr__(self, "coefficient", complex(self.coefficient))

    @classmethod
    def exponential(cls, rate: complex) -> "Integrand":
        return cls(rate=rate)

    @classmethod
    def constant(cls, value: complex = 1.0) -> "Integrand":
        return cls(coefficient=value)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            # overflow is handled by the callers' finiteness guards
            return self.coefficient * np.exp(self.rate * s)


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
    rate: float = 0.0
    exponent: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in DENSITY_KINDS:
            raise ValueError(f"unknown density kind {self.kind!r}; expected one of {DENSITY_KINDS}")
        if not (0.0 <= self.start < self.end):
            raise ValueError(f"bad density interval [{self.start}, {self.end})")
        if not math.isfinite(self.start):
            raise ValueError("density interval must start at a finite point")
        object.__setattr__(self, "scale", tuple(complex(c) for c in self.scale))
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


def _as_size_array(value, dimension: int | None) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=complex))
    if dimension is not None and arr.shape != (dimension,):
        raise ValueError(f"value of dimension {arr.shape} where ({dimension},) expected")
    return arr


@dataclass(frozen=True)
class BVFunction:
    """Locally-BV integrator: sorted jumps plus preset density pieces."""

    dimension: int
    jump_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    jump_sizes: np.ndarray = field(default_factory=lambda: np.empty((0, 1), dtype=complex))
    pieces: tuple[DensityPiece, ...] = ()
    norm_kind: str = "euclidean"

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.norm_kind!r}")
        times = np.asarray(self.jump_times, dtype=float)
        sizes = np.asarray(self.jump_sizes, dtype=complex)
        if sizes.ndim == 1:
            sizes = sizes.reshape(-1, 1)
        if times.ndim != 1 or sizes.shape != (times.size, self.dimension):
            raise ValueError("jump arrays must be (n,) times with (n, dimension) sizes")
        if times.size:
            if not np.all(np.isfinite(times)) or times[0] < 0:
                raise ValueError("jump locations must be finite and >= 0")
            if np.any(np.diff(times) <= 0):
                raise ValueError("jump locations must be strictly increasing")
            if not np.all(np.isfinite(sizes)):
                raise ValueError("jump sizes must be finite")
        for piece in self.pieces:
            if piece.dimension != self.dimension:
                raise ValueError(
                    f"density scale dimension {piece.dimension} != integrator dimension {self.dimension}"
                )
        object.__setattr__(self, "jump_times", times)
        object.__setattr__(self, "jump_sizes", sizes)
        object.__setattr__(self, "pieces", tuple(self.pieces))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_jumps(cls, jumps, dimension: int | None = None, norm_kind: str = "euclidean",
                   pieces: tuple[DensityPiece, ...] = ()) -> "BVFunction":
        jumps = sorted(jumps, key=lambda p: p[0])
        if dimension is None:
            if jumps:
                dimension = _as_size_array(jumps[0][1], None).size
            elif pieces:
                dimension = pieces[0].dimension
            else:
                dimension = 1
        times = np.asarray([p[0] for p in jumps], dtype=float)
        sizes = (np.asarray([_as_size_array(p[1], dimension) for p in jumps], dtype=complex)
                 if jumps else np.empty((0, dimension), dtype=complex))
        return cls(dimension, times, sizes, tuple(pieces), norm_kind)

    @classmethod
    def single_jump(cls, location: float, size=1.0, norm_kind: str = "euclidean") -> "BVFunction":
        return cls.from_jumps([(location, size)], norm_kind=norm_kind)

    @classmethod
    def from_density(cls, kind: str, *, start: float = 0.0, end: float = math.inf,
                     scale=1.0, rate: float = 0.0, exponent: float = 0.0,
                     norm_kind: str = "euclidean") -> "BVFunction":
        sc = tuple(np.atleast_1d(np.asarray(scale, dtype=complex)))
        piece = DensityPiece(start, end, kind, sc, rate, exponent)
        return cls(len(sc), np.empty(0), np.empty((0, len(sc)), dtype=complex), (piece,), norm_kind)

    @classmethod
    def zero(cls, dimension: int = 1, norm_kind: str = "euclidean") -> "BVFunction":
        return cls(dimension, np.empty(0), np.empty((0, dimension), dtype=complex), (), norm_kind)

    # -- basic queries ---------------------------------------------------------

    @property
    def jump_count(self) -> int:
        return int(self.jump_times.size)

    def _jumps_before(self, t: float) -> int:
        return int(np.searchsorted(self.jump_times, t, side="left"))

    def value_at(self, t: float, quad_tol: float = 1e-12) -> np.ndarray:
        """Cumulative (d,) value at t (left-continuous; value_at(0) == 0)."""
        return stieltjes_integral(self, Integrand.constant(1.0), t, quad_tol)

    def total_variation(self, t: float, quad_tol: float = 1e-12) -> float:
        """Total variation of the cumulative value over [0, t).

        Density pieces count piece by piece, so where pieces overlap the
        result is an upper bound (triangle inequality).
        """
        _refuse_nan(t)
        if t <= 0:
            return 0.0
        idx = self._jumps_before(t)
        tv = float(np.sum(vector_norm(self.jump_sizes[:idx], self.norm_kind))) if idx else 0.0
        for piece in self.pieces:
            lo, hi = piece.start, min(piece.end, t)
            if hi <= lo:
                continue
            amp = float(vector_norm(piece.scale_array(), self.norm_kind))
            if amp == 0.0:
                continue
            if not math.isfinite(hi):
                raise ValueError("total_variation over an unbounded range; pass a finite t")
            # |base| is the base of the same piece with the real part of its rate
            modulus = replace(piece, rate=complex(piece.rate).real)
            tv += amp * _piece_integrals(modulus, lambda s, owner: np.zeros_like(s), [0.0],
                                         [lo], [hi], quad_tol)[0].real
        return tv


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
    Kronrod values; an interval that runs out of leaves raises QuadratureError.
    """
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
    u = s^{a+1}, where s^a ds = du / (a + 1) leaves no singularity.  Failures
    name the piece's kind and the interval in s.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    a = piece.exponent if piece.kind in ("power", "damped_power") else 0.0
    singular = -1.0 < a < 0.0
    detail = f"density kind {piece.kind!r}"

    def integrand(x, owner):
        s = x ** (1.0 / (a + 1.0)) if singular else x
        v = np.exp(log_weight(s, owner) + piece.rate * s)
        if singular:
            v /= a + 1.0
        elif a:
            v *= np.power(s, a)
        _guard_finite(v, s, detail)
        return v

    u_lo, u_hi = (lo ** (a + 1.0), hi ** (a + 1.0)) if singular else (lo, hi)
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


def stieltjes_integral(bv: BVFunction, phi: Integrand, t: float,
                       quad_tol: float = 1e-10) -> np.ndarray:
    """int_0^t phi(s) dA(s) as a (d,) array: jumps at tau < t (strict) plus density pieces.

    Each piece takes _piece_integrals with slope phi.rate: constant and
    exponential pieces their closed form, the others absolute accuracy
    ~quad_tol each.
    """
    if not isinstance(phi, Integrand):
        raise TypeError("phi must be an Integrand preset")
    _refuse_nan(t)
    total = np.zeros(bv.dimension, dtype=complex)
    if t <= 0:
        return total
    idx = bv._jumps_before(t)
    if idx:
        # e^{0 s} = 1 exactly, so a rate-0 integrand needs no exponentials
        w = (np.full(idx, phi.coefficient) if phi.rate == 0
             else np.asarray(phi(bv.jump_times[:idx]), dtype=complex))
        _guard_finite(w, bv.jump_times[:idx], "jump weights")
        total += w @ bv.jump_sizes[:idx]
    c = phi.coefficient
    for piece in bv.pieces:
        lo, hi = piece.start, min(piece.end, t)
        if hi > lo and c:
            val = _piece_integrals(piece, lambda s, owner: phi.rate * s, [phi.rate], [lo], [hi],
                                   quad_tol / abs(c))[0]
            total += piece.scale_array() * (c * val)
    return total


# -- overflow-safe grid evaluators ---------------------------------------------


def _density_segments(bv: BVFunction, c: np.ndarray, points: np.ndarray, start: float,
                      quad_tol: float, rows: np.ndarray) -> None:
    """Add to rows[k, j] int e^{c_k s - Re(c_k) t_j} a(s) ds over the density of row j's step.

    Row j steps from the previous point (start for j = 0) to t_j, clipped to
    within (_NEGLIGIBLE_LOG + 10) / |Re c_k| of t_j.  The weight is formed as
    e^{Re(c_k) (s - t_j) + i Im(c_k) s}, so that a large Re(c_k) t_j adds no
    rounding.  Each piece takes one _piece_integrals call over the intervals
    of every abscissa and row, with slope c_k.  Pieces are added in order.
    """
    xr = c.real
    phase = 1j * c.imag
    with np.errstate(divide="ignore", over="ignore"):
        # Re(c) = 0, or subnormal, reaches everywhere
        reach = (_NEGLIGIBLE_LOG + 10.0) / np.abs(xr)
    prev = np.concatenate(([start], points[:-1]))
    end = np.minimum(np.maximum(prev, points - reach[:, None]), points + reach[:, None])
    step_lo, step_hi = np.minimum(end, points), np.maximum(end, points)
    for piece in bv.pieces:
        lo, hi = np.maximum(piece.start, step_lo), np.minimum(piece.end, step_hi)
        k, j = np.nonzero(hi > lo)
        if k.size == 0:
            continue
        lo, hi, t = lo[k, j], hi[k, j], points[j]
        xk, pk = xr[k], phase[k]
        vals = _piece_integrals(
            piece, lambda s, owner: xk[owner, None] * (s - t[owner, None]) + pk[owner, None] * s,
            c[k], lo, hi, quad_tol)
        rows[k, j] += vals[:, None] * piece.scale_array()[None, :]


def _jump_rows(bv: BVFunction, c: np.ndarray, points: np.ndarray, start: float) -> np.ndarray:
    """Row (k, j): sum of s_i e^{Re(c_k) (tau_i - t_j) + i Im(c_k) tau_i} over row j's jumps.

    Row j takes the jumps between t_{j-1} and t_j (t_{-1} = start), as
    [t_{j-1}, t_j) upward or [t_j, t_{j-1}) downward, and leaves out those
    whose weight is below e^-_NEGLIGIBLE_LOG, over _NEGLIGIBLE_LOG / |Re c_k|
    from t_j.  The rows' jumps together are one run of consecutive jumps, in
    row order upward and in reverse row order downward.  The run is cut into
    contiguous chunks whose temporaries, about eight arrays of the chunk's
    length, together hold at most _MAX_BLOCK_ELEMENTS entries.  Each chunk's
    layout (its rows and every tau_i - t_j) is formed once; then, for each
    abscissa in turn, each jump is weighted once and the terms are summed per
    row (np.add.reduceat).
    """
    xr, y = c.real, c.imag
    times, sizes = bv.jump_times, bv.jump_sizes
    out = np.zeros((c.size, points.size, bv.dimension), dtype=complex)
    # row j holds the jumps between bounds[j] and bounds[j + 1]
    bounds = np.searchsorted(times, np.concatenate(([start], points)), side="left")
    rows = np.arange(points.size)
    if bounds[-1] < bounds[0]:
        rows = rows[::-1]
    count = np.abs(np.diff(bounds))[rows]
    # position p of the run is jump first + p, and row rows[i] holds the
    # positions last[i] - count[i] to last[i] - 1
    first = int(min(bounds[0], bounds[-1]))
    last = np.cumsum(count)
    total = int(last[-1]) if last.size else 0
    chunk = max(1, _MAX_BLOCK_ELEMENTS // (8 * bv.dimension))
    for p0 in range(0, total, chunk):
        p1 = min(p0 + chunk, total)
        r0 = int(np.searchsorted(last, p0, side="right"))
        r1 = int(np.searchsorted(last, p1 - 1, side="right")) + 1
        taken = np.minimum(last[r0:r1], p1) - np.maximum(last[r0:r1] - count[r0:r1], p0)
        tau = times[first + p0:first + p1]
        gap = tau - points[np.repeat(rows[r0:r1], taken)]
        part = sizes[first + p0:first + p1]
        held = taken > 0
        into = rows[r0:r1][held]
        heads = (np.cumsum(taken) - taken)[held]
        for k in range(c.size):
            arg = xr[k] * gap
            w = np.exp(arg + 1j * (y[k] * tau)) if y[k] else np.exp(arg)
            w[arg < -_NEGLIGIBLE_LOG] = 0.0
            out[k, into] += np.add.reduceat(w[:, None] * part, heads, axis=0)
    return out


def _decay_scan(rows: np.ndarray, xr: float, points: np.ndarray) -> np.ndarray:
    """out_j = sum_{i <= j} e^{xr (t_i - t_j)} rows_i, for xr (t_j - t_i) >= 0.

    This is the recurrence out_j = e^{xr (t_{j-1} - t_j)} out_{j-1} + rows_j
    as a blocked prefix scan (Blelloch 1990).  A block holds the rows whose
    xr (t - t_0) falls in one cell of width _SCAN_SPAN.  Inside a block
    anchored at row a the rows are scaled by e^{xr (t_i - t_a)} <= e^_SCAN_SPAN,
    summed by np.cumsum and scaled back; the last row of a block carries into
    the next.  The rows are first divided by a power of two within a factor 2
    of their largest entry (1 if that is below 1), so that the scaled sums
    cannot overflow however large the rows are.  Anchoring rounds the two
    exponents xr (t - t_a) once each, which costs at most about
    2 eps _SCAN_SPAN relative per term.
    """
    peak = float(np.max(np.abs(rows.view(float)), initial=0.0))
    if peak == 0.0:
        return np.zeros_like(rows)
    # not below 1: complex division by a subnormal power of two gives inf
    unit = math.ldexp(1.0, max(math.frexp(peak)[1] - 1, 0))
    cell = np.floor(xr * (points - points[0]) / _SCAN_SPAN)
    starts = np.flatnonzero(np.diff(cell, prepend=-1.0))
    ends = np.append(starts[1:], points.size)
    grow = np.exp(xr * (points - np.repeat(points[starts], ends - starts)))[:, None]
    acc = grow * (rows / unit)
    # the carry into the block at a is out_{a-1} e^{xr (t_{a-1} - t_a)}, and
    # out_{a-1} = acc_{a-1} / grow_{a-1}
    before = np.maximum(starts - 1, 0)
    link = np.exp(xr * (points[before] - points[starts])) / grow[before, 0]
    for a, b, f in zip(starts, ends, link):
        np.cumsum(acc[a:b], axis=0, out=acc[a:b])
        if a:
            acc[a:b] += f * acc[a - 1]
    acc /= grow
    acc *= unit
    return acc


def _weighted_sweep(bv: BVFunction, c: np.ndarray, points: np.ndarray, start: float,
                    quad_tol: float) -> np.ndarray:
    """Rows (k, j): int e^{c_k s - Re(c_k) t_j} dA(s) over the s between start and t_j.

    One call sweeps the (m,) rates c over the (n,) points and returns the
    (m, n, d) rows.  The range is [start, t_j) while the points ascend from
    start and [t_j, start) while they descend to it.  The weights have
    modulus <= 1 when Re(c_k) (s - t_j) <= 0 on the range.  The jumps and the
    density between consecutive points give each row's own sum (_jump_rows,
    _density_segments), leaving out what lies over _NEGLIGIBLE_LOG / |Re c_k|
    (jumps) or that plus 10 (density) from t_j; the blocked scan _decay_scan
    then adds each row to the previous one rescaled by
    e^{Re(c_k) (t_prev - t_j)}, one abscissa at a time, back into the same
    array.  A nonfinite result raises NonFiniteIntegrandError.
    """
    _refuse_nan(start, points)
    rows = _jump_rows(bv, c, points, start)
    if bv.pieces:
        _density_segments(bv, c, points, start, quad_tol, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow is caught by the finiteness guard
        for k in range(c.size):
            rows[k] = _decay_scan(rows[k], c[k].real, points)
    _guard_finite(rows, points[:, None], "weighted sweep")
    return rows


def _abscissas(z, caller: str) -> np.ndarray:
    """z as a 0-d or 1-d complex array with Re(z) >= 0."""
    z = np.asarray(z, dtype=complex)
    if z.ndim > 1:
        raise ValueError(f"{caller} takes a scalar z or a 1-d array of them")
    if np.any(z.real < 0):
        raise ValueError(f"{caller} requires Re(z) >= 0")
    return z


def weighted_partial_grid(bv: BVFunction, z, t_grid: np.ndarray,
                          quad_tol: float = 1e-10) -> np.ndarray:
    """G_j = int_0^{t_j} e^{z s - Re(z) t_j} dA(s) on an ascending grid.

    Equals e^{-Re(z) t_j} int_0^{t_j} e^{zs} dA(s); every term has modulus
    <= its jump/density mass, so the result is finite for any Re(z) >= 0.
    The sweep walks the grid upward from 0 with c = z.  A scalar z gives the
    (n, d) rows; an (m,) array of z gives (m, n, d), all from one sweep.
    """
    zs = _abscissas(z, "weighted_partial_grid")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or (t_grid.size and (np.any(np.diff(t_grid) < 0) or t_grid[0] < 0)):
        raise ValueError("t_grid must be ascending and nonnegative")
    out = _weighted_sweep(bv, zs.ravel(), t_grid, 0.0, quad_tol)
    return out if zs.ndim else out[0]


def weighted_tail_grid(bv: BVFunction, z, t_grid: np.ndarray, v_max: float,
                       quad_tol: float = 1e-10) -> np.ndarray:
    """H_j = e^{Re(z) t_j} int_{t_j}^{v_max} e^{-z s} dA(s) on an ascending grid.

    Computed as int e^{-z s + Re(z) t_j} dA(s); all weights have modulus <= 1
    when Re(z) >= 0.  Jumps with tau in [t_j, v_max) contribute.  The sweep
    walks the grid downward from v_max with c = -z.  A scalar z gives the
    (n, d) rows; an (m,) array of z gives (m, n, d), all from one sweep.
    """
    zs = _abscissas(z, "weighted_tail_grid")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or (t_grid.size and np.any(np.diff(t_grid) < 0)):
        raise ValueError("t_grid must be ascending")
    if t_grid.size and v_max < t_grid[-1]:
        raise ValueError("v_max must dominate the largest grid point")
    out = _weighted_sweep(bv, -zs.ravel(), t_grid[::-1], float(v_max), quad_tol)[:, ::-1]
    return out if zs.ndim else out[0]


def weighted_partial(bv: BVFunction, z: complex, t: float,
                     quad_tol: float = 1e-10) -> np.ndarray:
    """Single-point e^{-Re(z) t} int_0^t e^{zs} dA(s) as a (d,) array."""
    if t <= 0:
        return np.zeros(bv.dimension, dtype=complex)
    return weighted_partial_grid(bv, z, np.asarray([t]), quad_tol)[0]


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


def _jump_exp_sum(tau: np.ndarray, sizes: np.ndarray, z: np.ndarray,
                  t: float) -> tuple[np.ndarray, float]:
    """sum_k s_k e^{-z(tau_k - t)} at every node z, by block-Taylor moments.

    Needs ascending tau and Re(z (tau_k - t)) >= 0 for every node and jump
    (up to the callers' 1e-12 slack), so each block factor e^{-z(c_b - t)}
    has modulus <= 1.  Returns the (n, d) sums and a bound on the truncation
    error of every entry, in any norm.
    """
    values = np.zeros((z.size, sizes.shape[1]), dtype=complex)
    if tau.size == 0 or z.size == 0:
        return values, 0.0
    # first, so that its temporaries are gone before the moments' are made
    remainder = jump_sum_remainder(sizes)
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
    return values, remainder


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

    Holds for every node and in either norm kind: sum_k ||s_k||_2 times
    rho^{P+1} e^rho / (P+1)!.
    """
    return _TAYLOR_REMAINDER * float(np.sum(np.linalg.norm(sizes, axis=1)))


def _exp_range_integral(bv: BVFunction, z: np.ndarray, t: float, lo: float, hi,
                        quad_tol: float) -> np.ndarray:
    """int_[lo, hi_i) e^{-z_i(s-t)} dA(s) for an (n,) array of z; hi = inf allowed.

    hi is one end for every node or an (n,) array of ends, one per node.
    Needs Re(z (s - t)) >= 0 on the range, the jump kernel's precondition:
    [t, inf) takes Re z >= 0 and [0, t) takes Re z <= 0.  The jumps are cut
    at each node's end; the kernel runs once on each run of jumps between two
    consecutive distinct cuts, over the nodes whose range covers that run, so
    the moments of every jump are formed once.  Each piece takes one
    _piece_integrals call over all nodes, with slope -z.
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
            part, _ = _jump_exp_sum(times[start:cut], sizes[start:cut], z[reach], t)
            out[reach] += part
            start = cut
    for piece in bv.pieces:
        a, b = max(piece.start, lo), np.minimum(piece.end, hi)
        live = b > a
        if not live.any():
            continue
        zl = z[live]
        vals = _piece_integrals(piece, lambda s, owner: zl[owner, None] * (t - s), -zl,
                                np.full(zl.size, a), b[live], quad_tol)
        out[live] += vals[:, None] * piece.scale_array()[None, :]
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
