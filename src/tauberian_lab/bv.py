"""Vector-valued integrators of locally bounded variation and their Stieltjes integrals.

An integrator is a finite list of jumps (strictly increasing locations, vector
sizes) plus piecewise smooth densities drawn from a small preset family.  The
cumulative value is normalized to be left-continuous with value 0 at 0, so a
jump at location tau contributes to integrals over [0, t) exactly when tau < t.

Two evaluation surfaces coexist on purpose:

* ``stieltjes_integral`` integrates a literal integrand.  Fine for moderate
  arguments, and the reference semantics everything else is tested against.
* the ``*_grid`` / ``exp_*`` evaluators keep exponential weights shifted
  inside the integral (all weights have modulus <= 1), which is the only way
  quantities like x e^{-xt} int_0^t e^{xs} dA(s) survive x*t in the hundreds
  without overflowing float64.  They are algebraically identical rewrites.

The contour evaluators ``exp_tail_integral`` and ``exp_partial_integral``
share one jump-sum kernel for sum_k s_k e^{-z(tau_k - t)} over N jumps and
many nodes z.  It groups the sorted jumps into blocks of width h = 2/max|z|,
forms per-block Taylor moments of order P = 20 about each block's centre
c_b, and evaluates sum_b e^{-z(c_b - t)} sum_p (-z h/2)^p m_{b,p}, where
every factor has modulus <= 1.  Truncation adds at most
sum_k ||s_k|| e / 21! (<= 2^-60 sum_k ||s_k||) to each entry, a bound the
kernel returns and ``CauchyReport.remainder_bound`` carries.  The block
factors carry their phase's rounding error (``_block_factors``), so a phase
of hundreds of radians still leaves each factor accurate to about eps.  The
cost is O(N P + nodes * blocks * P) instead of the dense O(nodes * N)
exponentials, and blocks <= min(N, 1 + span(tau) max|z| / 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad

from .vectors import NORM_KINDS, VectorValue, vector_norm

DENSITY_KINDS = ("constant", "exponential", "power", "damped_power")

# log(weight) below which exponentially damped contributions are provably
# negligible relative to total variation (e^-60 ~ 8.8e-27).
_NEGLIGIBLE_LOG = 60.0

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MAX_GL_PANELS = 4096

# Block-Taylor jump sums: blocks of width 2 rho / max|z|, Taylor order P.
# The remainder rho^{P+1} e^rho / (P+1)! is 5.3e-20 <= 2^-60 for rho = 1,
# P = 20, and P = 19 would miss it.
_TAYLOR_RADIUS = 1.0
_TAYLOR_ORDER = 20
_TAYLOR_REMAINDER = (_TAYLOR_RADIUS ** (_TAYLOR_ORDER + 1) * math.exp(_TAYLOR_RADIUS)
                     / math.factorial(_TAYLOR_ORDER + 1))
# largest temporary of one node chunk, in array elements
_MAX_BLOCK_ELEMENTS = 2_000_000


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


@dataclass(frozen=True)
class Integrand:
    """Continuous integrand of the form poly(s) * exp(rate * s).

    Covers the preset family: pure exponentials (poly = (1,)), constants
    (rate = 0, poly = (v,)), and exponential-times-polynomial products.
    """

    rate: complex = 0j
    poly: tuple[complex, ...] = (1.0 + 0j,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", complex(self.rate))
        object.__setattr__(self, "poly", tuple(complex(c) for c in self.poly))
        if len(self.poly) == 0:
            raise ValueError("polynomial part needs at least one coefficient")

    @classmethod
    def exponential(cls, rate: complex) -> "Integrand":
        return cls(rate=rate)

    @classmethod
    def constant(cls, value: complex = 1.0) -> "Integrand":
        return cls(rate=0j, poly=(value,))

    @classmethod
    def exp_poly(cls, rate: complex, poly: tuple[complex, ...]) -> "Integrand":
        return cls(rate=rate, poly=tuple(poly))

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            # overflow is handled by the callers' finiteness guards
            vals = npoly.polyval(s, np.asarray(self.poly)) * np.exp(self.rate * s)
        return vals


@dataclass(frozen=True)
class DensityPiece:
    """Density scale * base(s) on [start, end), end = inf allowed.

    base by kind: constant 1, exponential e^{rate s}, power s^exponent,
    damped_power s^exponent e^{rate s}.  base is nonnegative on s >= 0.
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
        # kinds whose base folds into a single exponential; eligible for the
        # fixed Gauss-Legendre fast path
        return self.kind in ("constant", "exponential")

    def base(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "constant":
            return np.ones_like(s)
        if self.kind == "exponential":
            return np.exp(self.rate * s)
        if self.kind == "power":
            return np.power(s, self.exponent)
        return np.power(s, self.exponent) * np.exp(self.rate * s)

    def scale_array(self) -> np.ndarray:
        return np.asarray(self.scale, dtype=complex)


def _as_size_array(value, dimension: int | None) -> np.ndarray:
    if isinstance(value, VectorValue):
        arr = value.as_array()
    else:
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

    def value_at(self, t: float, quad_tol: float = 1e-12) -> VectorValue:
        """Cumulative value at t (left-continuous; value_at(0) == 0)."""
        return stieltjes_integral(self, Integrand.constant(1.0), t, quad_tol)

    def total_variation(self, t: float, quad_tol: float = 1e-12) -> float:
        """Total variation of the cumulative value over [0, t).

        Density pieces count piece by piece, so where pieces overlap the
        result is an upper bound (triangle inequality).
        """
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
            val, _ = quad(lambda s: float(abs(piece.base(s))), lo, hi,
                          epsabs=quad_tol, epsrel=1e-12, limit=400)
            tv += amp * val
        return tv


# -- scalar smooth-piece integration ------------------------------------------


def gauss_legendre_panels(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite 16-point Gauss-Legendre on equal panels of [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    s = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return s, w


def _gl_smooth(a: float, b: float, crate: complex, integrand) -> complex | None:
    """int_a^b integrand(s) ds by composite Gauss-Legendre, for e^{crate s}-like integrands.

    One panel per 1.5 units of growth or phase of e^{crate s}.  Returns None
    when that needs more than _MAX_GL_PANELS panels; callers then fall back
    to adaptive quadrature.
    """
    k = max(1.0, abs(crate.real), abs(crate.imag))
    panels = max(int(math.ceil((b - a) * k / 1.5)), 1)
    if panels > _MAX_GL_PANELS:
        return None
    s, w = gauss_legendre_panels(a, b, panels)
    vals = integrand(s)
    _guard_finite(vals, s, "smooth piece")
    return complex(np.sum(w * vals))


def _piece_quad(piece: DensityPiece, weight, lo: float, hi: float,
                quad_tol: float) -> complex:
    """int_lo^hi weight(s) base(s) ds by adaptive quadrature, the smooth pieces' fallback."""

    def integrand(s):
        v = weight(s) * piece.base(s)
        if not np.all(np.isfinite(np.atleast_1d(v))):
            raise NonFiniteIntegrandError(float(s), f"density kind {piece.kind!r}")
        return complex(v)

    val, _err = quad(integrand, lo, hi, epsabs=quad_tol, epsrel=1e-12,
                     limit=400, complex_func=True)
    return complex(val)


def _piece_phi_integral(piece: DensityPiece, phi: Integrand, lo: float, hi: float,
                        quad_tol: float) -> complex:
    """int_lo^hi phi(s) base(s) ds as a complex scalar."""
    if hi <= lo:
        return 0j
    if piece.smooth_exponential and math.isfinite(hi):
        crate = phi.rate + piece.rate
        poly_arr = np.asarray(phi.poly)
        val = _gl_smooth(lo, hi, crate,
                         lambda s: npoly.polyval(s, poly_arr) * np.exp(crate * s))
        if val is not None:
            return val
    return _piece_quad(piece, phi, lo, hi, quad_tol)


def stieltjes_integral(bv: BVFunction, phi: Integrand, t: float,
                       quad_tol: float = 1e-10) -> VectorValue:
    """int_0^t phi(s) dA(s): jump part (tau < t, strict) plus smooth pieces.

    Smooth pieces are integrated to absolute accuracy ~quad_tol each.
    """
    if not isinstance(phi, Integrand):
        raise TypeError("phi must be an Integrand preset")
    total = np.zeros(bv.dimension, dtype=complex)
    if t <= 0:
        return VectorValue.from_array(total, bv.norm_kind)
    idx = bv._jumps_before(t)
    if idx:
        w = np.asarray(phi(bv.jump_times[:idx]), dtype=complex)
        _guard_finite(w, bv.jump_times[:idx], "jump weights")
        total += w @ bv.jump_sizes[:idx]
    for piece in bv.pieces:
        lo, hi = piece.start, min(piece.end, t)
        if hi > lo:
            total += piece.scale_array() * _piece_phi_integral(piece, phi, lo, hi, quad_tol)
    return VectorValue.from_array(total, bv.norm_kind)


# -- overflow-safe grid evaluators ---------------------------------------------


def _piece_shifted_exp(piece: DensityPiece, c: complex, shift: float, lo: float, hi: float,
                       quad_tol: float) -> complex:
    """int_lo^hi e^{c s - shift} base(s) ds with shift chosen so Re stays <= 0."""
    if hi <= lo:
        return 0j
    if piece.smooth_exponential and math.isfinite(hi):
        crate = c + piece.rate
        # e^{c s - shift} = e^{crate s} * e^{-shift} with base folded in; keep
        # the shift inside the node weights to dodge overflow for large shift
        val = _gl_smooth(lo, hi, crate, lambda s: np.exp(crate * s - shift))
        if val is not None:
            return val
    return _piece_quad(piece, lambda s: np.exp(c * s - shift), lo, hi, quad_tol)


def _density_segment(bv: BVFunction, c: complex, shift: float, a: float, b: float,
                     quad_tol: float) -> np.ndarray:
    out = np.zeros(bv.dimension, dtype=complex)
    for piece in bv.pieces:
        lo = max(piece.start, a)
        hi = min(piece.end, b)
        if hi > lo:
            out += piece.scale_array() * _piece_shifted_exp(piece, c, shift, lo, hi, quad_tol)
    return out


def weighted_partial_grid(bv: BVFunction, z: complex, t_grid: np.ndarray,
                          quad_tol: float = 1e-10) -> np.ndarray:
    """G_j = int_0^{t_j} e^{z s - Re(z) t_j} dA(s) on an ascending grid.

    Equals e^{-Re(z) t_j} int_0^{t_j} e^{zs} dA(s); every term has modulus
    <= its jump/density mass, so the result is finite for any Re(z) >= 0.
    """
    z = complex(z)
    x = z.real
    if x < 0:
        raise ValueError("weighted_partial_grid requires Re(z) >= 0")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or (t_grid.size and (np.any(np.diff(t_grid) < 0) or t_grid[0] < 0)):
        raise ValueError("t_grid must be ascending and nonnegative")
    out = np.empty((t_grid.size, bv.dimension), dtype=complex)
    acc = np.zeros(bv.dimension, dtype=complex)
    times, sizes = bv.jump_times, bv.jump_sizes
    prev = 0.0
    for j, tj in enumerate(t_grid):
        acc = acc * math.exp(x * (prev - tj))
        lo = int(np.searchsorted(times, prev, side="left"))
        hi = int(np.searchsorted(times, tj, side="left"))
        if hi > lo and x > 0:
            # drop terms whose weight underflows anyway
            cutoff = tj - _NEGLIGIBLE_LOG / x
            lo = max(lo, int(np.searchsorted(times, cutoff, side="left")))
        if hi > lo:
            w = np.exp(z * times[lo:hi] - x * tj)
            acc = acc + w @ sizes[lo:hi]
        if bv.pieces and tj > prev:
            a = prev
            if x > 0:
                a = max(a, tj - (_NEGLIGIBLE_LOG + 10.0) / x)
            acc = acc + _density_segment(bv, z, x * tj, a, tj, quad_tol)
        out[j] = acc
        prev = tj
    return out


def weighted_tail_grid(bv: BVFunction, z: complex, t_grid: np.ndarray, v_max: float,
                       quad_tol: float = 1e-10) -> np.ndarray:
    """H_j = e^{Re(z) t_j} int_{t_j}^{v_max} e^{-z s} dA(s) on an ascending grid.

    Computed as int e^{-z s + Re(z) t_j} dA(s); all weights have modulus <= 1
    when Re(z) >= 0.  Jumps with tau in [t_j, v_max) contribute.
    """
    z = complex(z)
    x = z.real
    if x < 0:
        raise ValueError("weighted_tail_grid requires Re(z) >= 0")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or (t_grid.size and np.any(np.diff(t_grid) < 0)):
        raise ValueError("t_grid must be ascending")
    if t_grid.size and v_max < t_grid[-1]:
        raise ValueError("v_max must dominate the largest grid point")
    out = np.empty((t_grid.size, bv.dimension), dtype=complex)
    acc = np.zeros(bv.dimension, dtype=complex)
    times, sizes = bv.jump_times, bv.jump_sizes
    prev = float(v_max)
    for j in range(t_grid.size - 1, -1, -1):
        tj = t_grid[j]
        acc = acc * math.exp(x * (tj - prev))
        lo = int(np.searchsorted(times, tj, side="left"))
        hi = int(np.searchsorted(times, prev, side="left"))
        if hi > lo and x > 0:
            hi = min(hi, int(np.searchsorted(times, tj + _NEGLIGIBLE_LOG / x, side="right")))
        if hi > lo:
            w = np.exp(-z * times[lo:hi] + x * tj)
            acc = acc + w @ sizes[lo:hi]
        if bv.pieces and prev > tj:
            b = prev
            if x > 0:
                b = min(b, tj + (_NEGLIGIBLE_LOG + 10.0) / x)
            acc = acc + _density_segment(bv, -z, -x * tj, tj, b, quad_tol)
        out[j] = acc
        prev = tj
    return out


def weighted_partial(bv: BVFunction, z: complex, t: float,
                     quad_tol: float = 1e-10) -> np.ndarray:
    """Single-point e^{-Re(z) t} int_0^t e^{zs} dA(s) as a (d,) array."""
    if t <= 0:
        return np.zeros(bv.dimension, dtype=complex)
    return weighted_partial_grid(bv, z, np.asarray([t]), quad_tol)[0]


# -- contour-facing evaluators ---------------------------------------------------


def _exp_segment(delta: np.ndarray, length: float) -> np.ndarray:
    """(e^{delta L} - 1) / delta, stable as delta -> 0 (complex expm1 stand-in)."""
    delta = np.asarray(delta, dtype=complex)
    x = delta * length
    out = np.empty_like(delta)
    small = np.abs(x) < 1e-4
    xs = x[small]
    out[small] = length * (1.0 + xs / 2.0 + xs * xs / 6.0 + xs * xs * xs / 24.0)
    out[~small] = (np.exp(x[~small]) - 1.0) / delta[~small]
    return out


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
    z_max = float(np.max(np.abs(z)))
    half = _TAYLOR_RADIUS / max(z_max, np.finfo(float).tiny)
    cell = np.floor((tau - tau[0]) / (2.0 * half))
    if not np.all(np.isfinite(cell)):
        raise ValueError(f"jump-sum blocks overflow: max |z| = {z_max:g}, "
                         f"jumps span [{tau[0]:g}, {tau[-1]:g}]")
    starts = np.flatnonzero(np.diff(cell, prepend=-1.0))
    counts = np.diff(np.append(starts, tau.size))
    centres = 0.5 * (tau[starts] + tau[starts + counts - 1])
    u = (tau - np.repeat(centres, counts)) / half  # in [-1, 1]
    # moments[b, p] = sum over block b of s_k u_k^p / p!
    moments = np.empty((starts.size, _TAYLOR_ORDER + 1, sizes.shape[1]), dtype=complex)
    term = sizes
    for p in range(_TAYLOR_ORDER + 1):
        moments[:, p] = np.add.reduceat(term, starts, axis=0)
        term = term * (u / (p + 1))[:, None]
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
    return values, jump_sum_remainder(sizes)


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
    idx = bv._jumps_before(t)
    out, _ = _jump_exp_sum(bv.jump_times[idx:], bv.jump_sizes[idx:], z, t)
    for piece in bv.pieces:
        lo = max(piece.start, t)
        if piece.end <= lo:
            continue
        scale = piece.scale_array()
        if piece.smooth_exponential:
            # exact: int_lo^hi e^{-z(s-t)} e^{rs} ds in shifted form, all
            # exponents kept <= 0 in real part for decaying pieces
            r = complex(piece.rate) if piece.kind == "exponential" else 0j
            prefactor = np.exp(r * t + (r - z) * (lo - t))
            if math.isfinite(piece.end):
                vals = prefactor * _exp_segment(r - z, piece.end - lo)
            else:
                if np.any((z - r).real <= 0):
                    raise ValueError(
                        f"tail integral diverges: density rate Re {r.real:g} >= a node abscissa")
                vals = prefactor / (z - r)
            _guard_finite(vals, lo, f"tail of density kind {piece.kind!r}")
            out += vals[:, None] * scale[None, :]
            continue
        if not math.isfinite(piece.end):
            min_x = float(np.min(z.real))
            if float(np.real(piece.rate)) >= min_x:
                raise ValueError(
                    f"tail integral diverges: density rate {piece.rate} >= min Re(z) = {min_x}")
        for i, zi in enumerate(z):
            def integrand(s, zi=zi):
                v = np.exp(-zi * (s - t)) * piece.base(s)
                if not np.all(np.isfinite(np.atleast_1d(v))):
                    raise NonFiniteIntegrandError(float(s), f"density kind {piece.kind!r}")
                return complex(v)

            val, _ = quad(integrand, lo, piece.end, epsabs=quad_tol, epsrel=1e-12,
                          limit=400, complex_func=True)
            out[i] += scale * val
    return out


def exp_partial_integral(bv: BVFunction, z_nodes: np.ndarray, t: float,
                         quad_tol: float = 1e-10) -> np.ndarray:
    """P(z) = int_0^t e^{z(t-s)} dA(s) = e^{tz} f_t(z), stable for Re z <= 0."""
    z = np.asarray(z_nodes, dtype=complex).ravel()
    if np.any(z.real > 1e-12):
        raise ValueError("exp_partial_integral requires Re(z) <= 0")
    idx = bv._jumps_before(t)
    out, _ = _jump_exp_sum(bv.jump_times[:idx], bv.jump_sizes[:idx], z, t)
    for piece in bv.pieces:
        lo, hi = piece.start, min(piece.end, t)
        if hi <= lo:
            continue
        scale = piece.scale_array()
        if piece.smooth_exponential:
            # exact: int_lo^hi e^{z(t-s)} e^{rs} ds; Re(z (t-lo)) <= 0 here
            r = complex(piece.rate) if piece.kind == "exponential" else 0j
            prefactor = np.exp(z * (t - lo) + r * lo)
            vals = prefactor * _exp_segment(r - z, hi - lo)
            _guard_finite(vals, lo, f"partial of density kind {piece.kind!r}")
            out += vals[:, None] * scale[None, :]
            continue
        for i, zi in enumerate(z):
            def integrand(s, zi=zi):
                v = np.exp(zi * (t - s)) * piece.base(s)
                if not np.all(np.isfinite(np.atleast_1d(v))):
                    raise NonFiniteIntegrandError(float(s), f"density kind {piece.kind!r}")
                return complex(v)

            val, _ = quad(integrand, lo, hi, epsabs=quad_tol, epsrel=1e-12,
                          limit=400, complex_func=True)
            out[i] += scale * val
    return out
