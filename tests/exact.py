"""Exact answers and references that the tests compare the package against.

Every family, brute-force reference and shared hypothesis draw that more than
one test reads lives here, written once:

* families with known values: the alternating series (jumps (-1)^{n+1}/n at
  log n, extension eta(z + 1)), the density e^{-s} (transform 1/(1 + z)), a
  mixed 2-vector integrator, the named coefficient rules, and five growth
  bounds, one of each kind;
* two helpers that build test integrators: jumps from a list of (t, size) pairs,
  and one density piece;
* references computed another way than the package does it: the total
  variation by quadrature, the dense jump sum, the finite transform of an
  exponential density, Laplace transforms of exponential pieces in mpmath,
  a Dirichlet range sum term by term in mpmath, the power series of
  int e^{cs} s^a ds, the row-by-row sweep, the per-block decay scan, the
  chunk plan of the sweep's jump rows, the full-grid sups and certificate,
  the sharper bounds that the derivation of the contour terms gives, the
  point-by-point extension agreement and the brute-force alternating
  partial sum;
* the draws of jump sizes in C^d and of density pieces that the sweep, batch,
  transform and certificate strategies share, each strategy with its own ranges.

mpmath is no dependency of the package: a reference that needs it imports it
through ``pytest.importorskip``.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from tauberian_lab import bv as bv_module
from tauberian_lab import verify as verify_module
from tauberian_lab.bv import (DENSITY_KINDS, BVFunction, DensityPiece, gauss_legendre_panels,
                              weighted_partial_grid, weighted_tail_grid)
from tauberian_lab.contour import EtaShiftExtension, RationalExtension, _eval_extension
from tauberian_lab.growth import GrowthBound
from tauberian_lab.problems import _COEFFICIENT_RULES
from tauberian_lab.transform import improper_laplace
from tauberian_lab.verify import Check, make_t_grid, make_x_grid
from tauberian_lab.vectors import vector_norm

# one growth bound of each kind
GROWTH_PRESETS = [
    GrowthBound("constant", 2.0),
    GrowthBound("affine", 1.2),
    GrowthBound("power", 1.0, alpha=0.8),
    GrowthBound("log", 1.5, beta=2.0),
    GrowthBound("exp", 1.0, kappa=0.1),
]


def jump_integrator(pairs, pieces=(), norm_kind="euclidean"):
    """BVFunction with the jumps (t, size) of pairs, in that order, and the density pieces.

    A size is a number or a (d,) sequence.  d is the first size's length, else the
    first piece's dimension, else 1.
    """
    sizes = [np.atleast_1d(np.asarray(size, dtype=complex)) for _, size in pairs]
    dimension = sizes[0].size if sizes else pieces[0].dimension if pieces else 1
    return BVFunction(dimension, np.asarray([t for t, _ in pairs], dtype=float),
                      np.reshape(sizes, (len(sizes), dimension)), tuple(pieces), norm_kind)


def density_integrator(kind, *, start=0.0, end=math.inf, scale=1.0, rate=0.0, exponent=0.0,
                       norm_kind="euclidean"):
    """BVFunction of one density piece and no jump; scale is a number or a (d,) sequence."""
    scale = tuple(np.atleast_1d(np.asarray(scale, dtype=complex)))
    return BVFunction(len(scale), np.empty(0), np.empty((0, len(scale)), dtype=complex),
                      (DensityPiece(start, end, kind, scale, rate, exponent),), norm_kind)


def total_variation(bv, t, quad_tol=1e-12):
    """Total variation of bv's cumulative value over [0, t), finite t, by quadrature: the
    reference for variation_bound.  The jump norms plus, for each density piece clipped to
    [lo, hi) within [0, t), ||scale|| int |base|; |base| is the base of the same piece with
    the real part of its rate.  Density pieces count piece by piece, so where pieces
    overlap the result is an upper bound (triangle inequality)."""
    if t <= 0:
        return 0.0
    before = int(np.searchsorted(bv.jump_times, t, side="left"))
    tv = float(np.sum(vector_norm(bv.jump_sizes[:before], bv.norm_kind)))
    for piece in bv.pieces:
        lo, hi = piece.start, min(piece.end, t)
        amp = float(vector_norm(piece.scale_array(), bv.norm_kind))
        if hi > lo and amp:
            modulus = dataclasses.replace(piece, rate=complex(piece.rate).real)
            tv += amp * bv_module._piece_integrals(
                modulus, lambda s, owner: np.zeros_like(s), [0.0], [lo], [hi], quad_tol)[0].real
    return tv


def alternating_jumps(n_max):
    """Times log n and (n_max, 1) sizes (-1)^{n+1}/n of the alternating series, n <= n_max."""
    n = np.arange(1, n_max + 1)
    sizes = (np.where(n % 2 == 1, 1.0, -1.0) / n).astype(complex).reshape(-1, 1)
    return np.log(n.astype(float)), sizes


def alternating_series(n_max):
    """The alternating series up to n_max as an integrator, with the extension eta(z + 1)."""
    return BVFunction(1, *alternating_jumps(n_max)), EtaShiftExtension()


def exp_density():
    """The density e^{-s} on [0, inf), with its transform 1/(1 + z) as a rational extension;
    the workhorse rational case."""
    return density_integrator("exponential", rate=-1.0), RationalExtension((1.0,), (1.0, 1.0))


def exp_partial(rate, z, t):
    """int_0^t e^{-zs} e^{rate s} ds in closed form: the finite transform of the density e^{rate s}."""
    d = rate - z
    if d == 0:
        return t
    return (np.exp(d * t) - 1.0) / d


def exp_integrals(w0, slope, lo, hi):
    """int_lo^hi e^{w0 + slope s} ds for each range, in 200-bit mpmath: e^{w0 + d lo}
    expm1(d (hi - lo)) / d with d = slope, which keeps its digits where a range spans
    whole periods and the integral cancels, and as d -> 0; hi = inf needs Re(d) < 0."""
    mpmath = pytest.importorskip("mpmath")
    out = []
    with mpmath.workprec(200):
        for w, d, a, b in zip(w0, slope, lo, hi):
            w, d, a = mpmath.mpc(w.real, w.imag), mpmath.mpc(d.real, d.imag), mpmath.mpf(a)
            if b == math.inf:
                value = -mpmath.exp(w + d * a) / d
            elif d == 0:
                value = mpmath.exp(w) * (mpmath.mpf(b) - a)
            else:
                value = mpmath.exp(w + d * a) * mpmath.expm1(d * (mpmath.mpf(b) - a)) / d
            out.append(complex(value))
    return np.asarray(out)


def mixed_integrator():
    """2-vector integrator: jumps (one at 2.0) plus all four density kinds on finite pieces."""
    pieces = (
        DensityPiece(0.0, 3.0, "constant", (0.5, -0.2j)),
        DensityPiece(3.5, 4.5, "exponential", (1.0, 0.3), rate=-0.4),
        DensityPiece(0.5, 5.0, "power", (0.2, 0.1 + 0.1j), exponent=1.5),
        DensityPiece(2.0, 6.0, "damped_power", (-0.3j, 0.4), rate=-0.2, exponent=0.5),
    )
    jumps = [(0.0, (1.0, 0.5)), (1.5, (-0.5j, 0.25)), (2.0, (0.7, -0.1 + 0.2j)),
             (4.0, (-0.2, 1.0j)), (5.5, (0.3 + 0.3j, -0.6))]
    return jump_integrator(jumps, pieces=pieces)


def named_rule(kind):
    """The table of the named coefficient rule kind ("alternating" or "ones"), as
    load_problem builds it."""
    return np.asarray(_COEFFICIENT_RULES[kind], dtype=complex)


def dense_jump_sum(tau, sizes, z, t):
    """Reference for the jump-sum kernel: the dense node x jump sum of sizes e^{-z (tau - t)}.

    The exponent is formed in long double: in double, rounding z (tau - t)
    alone costs eps |z (tau - t)|, past the 64 eps allowed below once the
    phase reaches a few hundred radians.  Where long double is double this
    is the plain double sum.
    """
    arg = -np.asarray(z, dtype=np.clongdouble)[:, None] * (
        np.asarray(tau, dtype=np.longdouble)[None, :] - np.longdouble(t))
    return np.exp(arg).astype(complex) @ sizes


def dirichlet_range_sum(table, c, t, n0, n1):
    """Reference for bv._period_sums: e^{-Re(c) t} sum b_n n^{c-1} over n0 < n <= n1,
    b_n the (q, d) table's row (n - 1) mod q, and the range's jump mass e^{-Re(c) t}
    sum ||b_n|| n^{Re(c) - 1}, each term formed in 30-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        c, t = mpmath.mpc(c.real, c.imag), mpmath.mpf(t)
        rows = [[mpmath.mpc(v.real, v.imag) for v in row] for row in table]
        norms = [mpmath.mpf(float(np.linalg.norm(row))) for row in table]
        total, mass = [mpmath.mpc(0)] * table.shape[1], mpmath.mpf(0)
        for n in range(n0 + 1, n1 + 1):
            w = mpmath.exp((c - 1) * mpmath.log(n) - c.real * t)
            row = rows[(n - 1) % len(rows)]
            total = [acc + w * b for acc, b in zip(total, row)]
            mass += abs(w) * norms[(n - 1) % len(rows)]
        return np.asarray([complex(v) for v in total]), float(mass)


def power_series(c, a, lo, hi, m=math, terms: int = 150):
    """int_lo^hi e^{cs} s^a ds = sum_k c^k / k! (hi^p - lo^p) / p, p = a + k + 1, in the
    arithmetic of the arguments' types (m = math or mpmath).  Each difference is formed as
    lo^p expm1(p log(hi / lo)) / p, which keeps its digits as p -> 0; in floats the sum is
    exact to rounding only where its terms do not cancel (|c| hi of order 1)."""
    total, ck = 0, 1
    for k in range(terms):
        p = a + k + 1
        total += ck * (hi ** p / p if lo == 0 else lo ** p * m.expm1(p * m.log(hi / lo)) / p)
        ck *= c / (k + 1)
    return total


def loop_sweep(bv, c, points, start, quad_tol):
    """Reference for the weighted sweep: the row-by-row recurrence.

    Row j rescales the previous row by e^{Re(c) (t_{j-1} - t_j)} and adds the
    jumps and density between the two points: jumps by a direct sum, constant
    and exponential pieces by composite Gauss-Legendre (quad where that needs
    too many panels), the other pieces by quad, one row at a time.  Weights
    are formed as e^{Re(c) (s - t_j) + i Im(c) s}; the form c s - Re(c) t_j
    rounds Re(c) t_j and was up to 5.7e-13 of the total variation off at
    Re(c) = 1000.
    """

    def gauss_legendre(a, b, crate, integrand, max_panels=4096):
        """int_a^b integrand(s) ds by composite 16-point Gauss-Legendre, for e^{crate s}-like
        integrands.

        One panel per 1.5 units of growth or phase of e^{crate s}; None when that
        needs more than max_panels panels.
        """
        k = max(1.0, abs(crate.real), abs(crate.imag))
        panels = max(math.ceil((b - a) * k / 1.5), 1)
        if panels > max_panels:
            return None
        s, w = gauss_legendre_panels(a, b, panels)
        return complex(np.sum(w * integrand(s)))

    xr, y = c.real, c.imag
    reach = bv_module._NEGLIGIBLE_LOG / abs(xr) if xr else math.inf
    seg_reach = (bv_module._NEGLIGIBLE_LOG + 10.0) / abs(xr) if xr else math.inf
    times, sizes = bv.jump_times, bv.jump_sizes
    out = np.empty((points.size, bv.dimension), dtype=complex)
    acc = np.zeros(bv.dimension, dtype=complex)
    prev = start
    for j, tj in enumerate(points):
        acc = acc * math.exp(xr * (prev - tj))
        i0 = max(np.searchsorted(times, min(prev, tj)), np.searchsorted(times, tj - reach))
        i1 = min(np.searchsorted(times, max(prev, tj)),
                 np.searchsorted(times, tj + reach, side="right"))
        if i1 > i0:
            acc = acc + np.exp(xr * (times[i0:i1] - tj) + 1j * y * times[i0:i1]) @ sizes[i0:i1]
        end = min(max(prev, tj - seg_reach), tj + seg_reach)
        for piece in bv.pieces:
            lo, hi = max(piece.start, min(end, tj)), min(piece.end, max(end, tj))
            if hi <= lo:
                continue
            val = None
            if piece.smooth_exponential:
                rest = 1j * y + piece.rate
                val = gauss_legendre(lo, hi, c + piece.rate,
                                     lambda s: np.exp(xr * (s - tj) + rest * s))
            if val is None:
                val = bv_module._density_integrals(
                    piece, lambda s, owner: xr * (s - tj) + 1j * y * s,
                    [lo], [hi], quad_tol)[0]
            acc = acc + piece.scale_array() * val
        out[j] = acc
        prev = tj
    return out


def scan_one(rows, xr, points, held):
    """Reference for bv._decay_scan: the blocked scan of one abscissa's (h, d) rows, block by
    block, as a copy."""
    peak = float(np.max(np.abs(rows.view(float)), initial=0.0))
    if peak == 0.0:
        return np.zeros_like(rows)
    unit = math.ldexp(1.0, max(math.frexp(peak)[1] - 1, 0))
    cell = np.floor(xr * (points - points[0]) / bv_module._SCAN_SPAN)
    starts = np.flatnonzero(np.diff(cell, prepend=-1.0))
    block = np.searchsorted(starts, held, side="right") - 1
    grow = np.exp(xr * (points[held] - points[starts[block]]))[:, None]
    acc = grow * (rows / unit)
    before = np.maximum(starts - 1, 0)
    anchor = starts[np.maximum(np.arange(starts.size) - 1, 0)]
    link = (np.exp(xr * (points[before] - points[starts]))
            / np.exp(xr * (points[before] - points[anchor])))
    first = np.searchsorted(held, starts).tolist() + [held.size]
    carry = np.zeros(rows.shape[1:], dtype=rows.dtype)
    for a, i, e, f in zip(starts.tolist(), first, first[1:], link):
        if e > i:
            np.cumsum(acc[i:e], axis=0, out=acc[i:e])
            if a:
                acc[i:e] += f * carry
            carry = acc[e - 1]
        elif a:
            carry = 0.0 + f * carry
    return acc / grow * unit


def chunk_rows(bv, c, points, start, chunk):
    """Reference for bv._jump_rows with every row held and _TILE_JUMPS = chunk, as a copy.

    The run of the rows' jumps is cut into chunks of `chunk` jumps.  Each
    chunk's terms are formed at once as a (d, n) array, with the weights
    e^{Re(c) (tau - t_j) + i Im(c) tau} (real ones where Im(c) = 0) zeroed
    below e^-_NEGLIGIBLE_LOG, and one np.add.reduceat sums them per row; each
    row adds its chunks' sums in run order.
    """
    times, sizes = bv.jump_times, bv.jump_sizes
    out = np.zeros((c.size, points.size, bv.dimension), dtype=complex)
    bounds = np.searchsorted(times, np.concatenate(([start], points)), side="left")
    rows = np.arange(points.size)
    if bounds[-1] < bounds[0]:
        rows = rows[::-1]
    count = np.abs(np.diff(bounds))[rows]
    first = int(min(bounds[0], bounds[-1]))
    last = np.cumsum(count)
    for p0 in range(0, int(last[-1]) if last.size else 0, chunk):
        p1 = min(p0 + chunk, int(last[-1]))
        taken = np.minimum(last, p1) - np.maximum(last - count, p0)
        some = np.flatnonzero(taken > 0)
        tau = times[first + p0:first + p1]
        gap = tau - np.repeat(points[rows[some]], taken[some])
        part = np.ascontiguousarray(sizes[first + p0:first + p1].T)
        heads = np.cumsum(taken[some]) - taken[some]
        for k, ck in enumerate(c):
            arg = gap * ck.real
            w = np.exp(arg + 1j * (tau * ck.imag)) if ck.imag else np.exp(arg)
            w[arg < -bv_module._NEGLIGIBLE_LOG] = 0.0
            out[k, rows[some]] += np.add.reduceat(np.multiply(w, part), heads, axis=1).T
    return out


def hybrid_grid(bv: BVFunction, t_max: float, base_points: int = 512,
                jump_points: int = 64) -> np.ndarray:
    """make_t_grid's layout on [0, t_max]: base_points uniform points plus jump_points
    geometric ones in the 0.1 after each jump."""
    taus = bv.jump_times[bv.jump_times < t_max]
    refined = (taus[:, None] + 0.1 * np.geomspace(1e-6, 1.0, jump_points)).ravel()
    return np.unique(np.concatenate([np.linspace(0.0, t_max, base_points),
                                     refined[refined <= t_max]]))


def full_sweep_sups(bv, zs, t_grid, masks):
    """Reference for _sweep_sups: _sup over the norms of every row of weighted_partial_grid."""
    sups, ratio = {}, {}
    for z in dict.fromkeys(map(complex, zs)):
        norms = vector_norm(weighted_partial_grid(bv, [z], t_grid)[0], bv.norm_kind)
        sups[z] = verify_module._sup(norms)
        if z in masks:
            ratio[z] = verify_module._sup(norms * z.real, masks[z])
    return sups, ratio


def full_sweep_certificate(bv, cert, t_grid, x_grid):
    """Reference for check_certificate: every report read from all rows of the public sweeps,
    one weighted_partial_grid call per abscissa (full_sweep_sups) and one weighted_tail_grid."""
    t_grid = make_t_grid(bv)[0] if t_grid is None else t_grid
    x0, c, y = cert.x0, cert.C / cert.x0, 2.0 * cert.x0
    masks = verify_module._ratio_masks(cert, t_grid, x_grid)
    small = make_x_grid(x0 * 1e-2, x0, 16)
    sups, ratio = full_sweep_sups(bv, [*masks, x0, complex(x0, y), *small], t_grid, masks)

    def report(case_id, found, bound, x, where, note=""):
        failed = sups[complex(x0)][0] > c * (1.0 + verify_module.REL_TOL)
        why = f"ratio hypothesis fails at {where}" if failed else ""
        return Check(case_id, found[0], bound, float(t_grid[found[1]]), x, failed,
                     "; ".join(filter(None, (why, note))))

    best = max(ratio, key=lambda x: ratio[x][0])  # the first of the largest
    reports = [Check("tauberian_condition", ratio[best][0], cert.C,
                     float(t_grid[ratio[best][1]]), best.real)]
    for v in (0.0, y):
        reports.append(report(f"line_bound_x{x0:g}_y{v:g}", sups[complex(x0, v)],
                              c * (1.0 + abs(v) / x0), x0, f"x = {x0:g}"))
    v_max = verify_module.tail_truncation_point(c, x0, y, float(t_grid[-1]))
    tail = vector_norm(weighted_tail_grid(bv, [complex(x0, y)], t_grid, v_max)[0], bv.norm_kind)
    reports.append(report(f"tail_bound_x{x0:g}_y{y:g}", verify_module._sup(tail),
                          c * (3.0 + abs(y) / x0), x0, f"x = {x0:g}", f"v_max={v_max:g}"))
    reports.append(min((report("small_x_bound", sups[complex(x)], c * x0 / float(x), float(x),
                               f"x0 = {x0:g}") for x in small),
                       key=lambda rep: rep.margin))
    return reports


def derived_term_bounds(C: float, MR: float, t: float, R: float) -> tuple[float, float, float]:
    """The bounds on the contour terms I, II and III that their derivation gives, with MR =
    M(R): 12 C/(pi R) + 2 C/R and 4 C/(pi R) + 2 C/R, sharper than term_bounds' displayed
    6 C/R and 4 C/R, and the decay bound's last two terms M(R)/(t R^3) + 2 R M(R)^2
    e^{-t/(2 M(R))}, which term III displays as they are."""
    return (12.0 * C / (math.pi * R) + 2.0 * C / R, 4.0 * C / (math.pi * R) + 2.0 * C / R,
            MR / (t * R ** 3) + 2.0 * R * MR * MR * math.exp(-t / (2.0 * MR)))


def loop_agreement(bv, f_ext, cert, rng, n_points, target_err=1e-9, quad_tol=1e-12):
    """Reference for extension_agreement: one transform and one extension call per point."""
    worst = 0.0
    for _ in range(n_points):
        z = complex(rng.uniform(0.3, 2.5), rng.uniform(-2.5, 2.5))
        point = improper_laplace(bv, [z], cert, target_err=target_err, quad_tol=quad_tol)
        ext = _eval_extension(f_ext, np.asarray([z]), bv.dimension)[0]
        worst = max(worst, float(vector_norm(point.value[0] - ext, bv.norm_kind)))
    return worst


def alternating_partial_sum(s: complex, count: int) -> complex:
    """Brute-force sum_{m=1}^{count} (-1)^{m+1} m^{-s}; the cross-check oracle."""
    total = 0j
    block = 1_000_000
    for start in range(1, count + 1, block):
        m = np.arange(start, min(start + block, count + 1), dtype=float)
        signs = np.where(m.astype(np.int64) % 2 == 1, 1.0, -1.0)
        total += complex(np.sum(signs * np.exp(-complex(s) * np.log(m))))
    return total


_unit = st.floats(-1.0, 1.0)


def draw_sizes(draw, count, d=2):
    """count jump sizes in C^d as a (count, d) array, each real and imaginary part in [-1, 1]."""
    parts = draw(st.lists(_unit, min_size=2 * d * count, max_size=2 * d * count))
    return np.asarray(parts, dtype=float).reshape(-1, d, 2) @ np.asarray([1.0, 1.0j])


def draw_piece(draw, kind, d=2, starts=st.floats(0.0, 5.0), lengths=st.floats(0.05, 3.0),
               max_rate=1.0, imag=st.floats(-2.0, 2.0)):
    """A density piece of kind in C^d from a start drawn from starts, of a length drawn from
    lengths (inf allowed); its rate has real part in [-1.5, 0] (damped_power) or [-1.5,
    max_rate] and imaginary part drawn from imag, its exponent lies in [-0.9, 2] ([-0.5, 2]
    from 0), and the parts of its scale in [-1, 1]."""
    start = draw(starts)
    rate = 0.0
    if kind in ("exponential", "damped_power"):
        rate = complex(draw(st.floats(-1.5, 0.0 if kind == "damped_power" else max_rate)),
                       draw(imag))
    exponent = draw(st.floats(-0.9 if start > 0 else -0.5, 2.0))
    return DensityPiece(start, start + draw(lengths), kind, tuple(draw_sizes(draw, 1, d)[0]),
                        rate, exponent)


def draw_pieces(draw, d=2, **ranges):
    """One piece of each density kind, by draw_piece with the given ranges."""
    return tuple(draw_piece(draw, kind, d, **ranges) for kind in DENSITY_KINDS)
