"""Grid verification of the Tauberian condition and its companion bounds.

Every check reads sups of ||G(z, t)||, G(z, t) = e^{-Re(z) t} int_0^t e^{zs} dA(s),
over a hybrid time grid (uniform base plus geometric refinement just after each
jump, where suprema are attained as t decreases to the jump) and reports a
Check: the grid supremum as its value, the asserted bound, their margin, and
the witnessing grid point.  Negative margins are reported, never raised.  The
default grid (make_t_grid) is fixed: 512 uniform points on [0, 50] plus 64
geometric ones in the 0.1 after each of the first 128 jumps.  Check is the
one record of a verdict, here and in the contour and dirichlet commands, and
Check.passed is the one verdict rule: the check's own hypothesis holds and
within(margin, bound), whose REL_TOL is the one relative slack of every
verdict; the ratio hypothesis the bounds assume allows the same slack.
check_certificate is the one sup check: it takes a certificate (C, x0, T, R(t))
and reports the ratio condition and the line, tail and small-x bounds it
yields at x0, from one batched sweep that takes each abscissa once.  A
certificate whose bounds overflow is refused before the sweep.  Of the
small-x abscissas it sweeps only those whose bound c x0 / x the variation of
A cannot settle: ||G|| never exceeds that variation, so every other one has a
larger margin than x0 and cannot be the worst.  The bounds assume the ratio
hypothesis at x0; each reads it from the same sweep and is marked
hypothesis_failed when it fails, instead of silently checking a vacuous
claim.  The t grid ascends and R(t) never decreases, so the pairs the ratio
condition checks at x, t > T and R(t) >= x, are the grid's suffix from one
start index.  The sweep computes and reads only the grid rows where ||G||
can rise: row 0, each row that takes a jump or meets a density piece, and
each start index.  Elsewhere G only decays, so each sup and its first
witness are bitwise those of the full grid.

The growth hypothesis ||f(z)|| <= M(|Im z|) on the strip -1/M(|y|) < Re z <= 0
is checked on one scan of the strip: every depth of _STRIP_DEPTHS times every
ordinate, in one call of the extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bv import (_MAX_BLOCK_ELEMENTS, BVFunction, _rising_rows, weighted_partial_grid,
                 weighted_tail_grid)
from .growth import GrowthBound
from .transform import TauberianCertificate, tail_bound
from .vectors import vector_norm

REL_TOL = 1e-9  # relative slack of a verdict: a margin >= -REL_TOL |bound| passes
_TAIL_REMAINDER_TOL = 1e-6  # the tail bound's certified remainder past its truncation point
_SMALL_X_SLACK = 1e-10  # relative slack of dropping a small-x abscissa (_small_x_abscissas)
_STRIP_DEPTHS = (0.0, 0.05, 0.25, 0.5, 0.75, 0.98)  # fractions of the strip width 1/M(|y|)
# the default t grid (make_t_grid)
_T_MAX, _BASE_POINTS = 50.0, 512
_JUMP_POINTS, _JUMP_WINDOW, _MAX_REFINED_JUMPS = 64, 0.1, 128


@dataclass(frozen=True)
class Check:
    """One verdict: value against bound, with the point that witnesses the value."""

    case_id: str
    value: float
    bound: float
    witness_t: float = math.nan
    witness_x: float | None = None
    hypothesis_failed: bool = False
    note: str = ""

    @property
    def margin(self) -> float:
        return self.bound - self.value

    def passed(self) -> bool:
        return (not self.hypothesis_failed) and within(self.margin, self.bound)


def within(margin: float, bound: float) -> bool:
    """Check.passed's comparison: a margin of at least -REL_TOL |bound| passes (a nan one
    fails)."""
    return margin >= -REL_TOL * abs(bound)


def make_t_grid(bv: BVFunction) -> tuple[np.ndarray, str]:
    """(grid, description): _BASE_POINTS uniform on [0, _T_MAX] plus _JUMP_POINTS geometric
    ones in (tau, tau + _JUMP_WINDOW] after each of the first _MAX_REFINED_JUMPS jumps."""
    base = np.linspace(0.0, _T_MAX, _BASE_POINTS)
    taus = bv.jumps_at(slice(0, min(int(bv.jumps_before(_T_MAX)), _MAX_REFINED_JUMPS)))[0]
    refined = (taus[:, None] + _JUMP_WINDOW * np.geomspace(1e-6, 1.0, _JUMP_POINTS)).ravel()
    grid = np.sort(np.concatenate([base, refined[refined <= _T_MAX]]))
    grid = grid[np.diff(grid, prepend=-math.inf) != 0]  # np.unique would import numpy.ma
    return grid, (f"t in [0, {_T_MAX:g}], {_BASE_POINTS} uniform + {_JUMP_POINTS} geometric per "
                  f"jump (window {_JUMP_WINDOW:g}, {taus.size} jumps refined), {grid.size} points")


def make_x_grid(x_min: float, x_max: float, points: int = 64) -> np.ndarray:
    if not (0 < x_min <= x_max):
        raise ValueError("x grid needs 0 < x_min <= x_max")
    if x_min == x_max:
        return np.asarray([x_min])
    return np.geomspace(x_min, x_max, points)


def _span(grid: np.ndarray) -> str:
    return f"[{np.min(grid):g}, {np.max(grid):g}]" if grid.size else "[] (empty)"


def _sup(vals: np.ndarray, mask: np.ndarray | None = None) -> tuple[float, int]:
    """Largest vals_j over the j in mask, and the first j that attains it."""
    if mask is not None:
        vals[~mask] = -math.inf
    j = int(np.argmax(vals))
    return float(vals[j]), j


def _sweep_sups(bv: BVFunction, zs, t_grid: np.ndarray, quad_tol: float,
                starts: dict | None = None) -> tuple[dict, dict]:
    """_sup of ||G(z, t_grid)|| at each distinct z of zs, keyed by z, and of x ||G(x, t_grid)||
    over the grid from index j on at each x of starts {complex(x): j}.

    Only the rows where ||G|| can rise are swept and read: row 0, each row whose step takes a
    jump or meets a density piece (bv._rising_rows) and each start index.  On every other row
    of the grid, or of its suffix from a start, G is a decayed copy of the last such row
    before it, never larger in norm after rounding (see bv._decay_scan), so each value and
    first witness is bitwise that of the sweep of every row; witnesses are mapped back to their
    grid index.  The z are swept once each, in order, by weighted_partial_grid(..., held=...)
    calls on batches of at most _MAX_BLOCK_ELEMENTS // 8 entries of the held rows, so that the
    (m, held, d) rows of one call stay bounded however many z there are; each batch is read
    and dropped before the next.
    """
    zs, starts = list(dict.fromkeys(map(complex, zs))), starts or {}
    held = _rising_rows(bv, t_grid, list(starts.values()))
    step = max(1, _MAX_BLOCK_ELEMENTS // 8 // max(1, held.size * bv.dimension))
    sups, ratio = {}, {}
    for b in range(0, len(zs), step):
        rows = weighted_partial_grid(bv, np.asarray(zs[b:b + step]), t_grid, quad_tol, held)
        for z, row in zip(zs[b:b + step], rows):
            norms = vector_norm(row, bv.norm_kind)
            value, j = _sup(norms)
            sups[z] = value, int(held[j])
            if z in starts:
                value, j = _sup(norms * z.real, held >= starts[z])
                ratio[z] = value, int(held[j])
        del rows, row, norms
    return sups, ratio


def _report(case_id: str, found: tuple[float, int], bound: float, x: float, t_grid: np.ndarray,
            failed: str = "", note: str = "") -> Check:
    """The check of a sup and its witness index, found = _sup(...)."""
    return Check(case_id, found[0], bound, float(t_grid[found[1]]), x, bool(failed),
                 "; ".join(filter(None, (failed, note))))


def _ratio_starts(cert: TauberianCertificate, t_grid: np.ndarray,
                  x_grid: np.ndarray | None) -> dict:
    """{complex(x): j} for each x of the grid with a t to check, t > T and R(t) >= x: the
    ascending grid's t_j, t_{j+1}, ..., as R(t) never decreases."""
    if x_grid is None:
        x_hi = cert.x0 * 1e3
        rule_hi = float(cert.R_rule(t_grid[-1]))
        if math.isfinite(rule_hi):
            x_hi = min(x_hi, rule_hi)
        x_grid = make_x_grid(cert.x0, max(cert.x0, x_hi))
    x_grid = np.asarray(x_grid, dtype=float)
    if not np.all(np.isfinite(x_grid)):
        raise ValueError(f"x grid must hold finite abscissas; it holds "
                         f"{x_grid[~np.isfinite(x_grid)][0]:g}")
    above = x_grid >= cert.x0 * (1.0 - 1e-12)
    if not above.any():
        raise ValueError(f"x grid {_span(x_grid)} holds no abscissa at or above the "
                         f"certificate's x0 = {cert.x0:g}")
    x_grid = x_grid[above]
    rule_vals = np.asarray(cert.R_rule(t_grid), dtype=float)
    first = np.maximum(np.searchsorted(t_grid, cert.T, side="right"),
                       np.searchsorted(rule_vals, x_grid))
    live = first < t_grid.size
    if not live.any():
        raise ValueError(f"ratio condition has nothing to check: no grid point has t > T = "
                         f"{cert.T:g} and x0 = {cert.x0:g} <= x <= R(t); the grids hold t in "
                         f"{_span(t_grid)} and x in {_span(x_grid)}")
    return dict(zip(map(complex, x_grid[live]), first[live].tolist()))


def tail_truncation_point(C: float, x: float, y: float, t_max: float) -> float:
    """Smallest v with the certified remainder tail_bound(C, x, y) e^{x(t-v)} below
    _TAIL_REMAINDER_TOL for every grid t <= t_max."""
    amp = tail_bound(C, x, y)
    extra = math.log(amp / _TAIL_REMAINDER_TOL) / x if amp > _TAIL_REMAINDER_TOL else 0.0
    return t_max + max(0.0, extra)


def _small_x_abscissas(bv: BVFunction, C: float, x0: float, small: np.ndarray,
                       t_grid: np.ndarray, quad_tol: float) -> np.ndarray:
    """The abscissas of small, the 16 in [x0/100, x0], whose small-x bound C x0 / x a sweep
    must read.

    ||G(x, t)|| <= V for every grid t, V = bv.variation_bound(t_max) (triangle
    inequality), so the margin at x is at least C x0 / x - V.  An abscissa is
    dropped when C x0 / x - V - slack > C x0 / x_last, the bound at the largest
    abscissa x_last = x0, which is always kept and whose margin is at most that
    bound.  slack is _SMALL_X_SLACK (V + C x0 / x), for the rounding of the scan
    (at most about 1.9e-14 of the jump norms), the remainder of the range sums
    that answer a Dirichlet table's rows past the head (at most
    bv._RANGE_SUM_TOL = 2^-60 of the jump norms, far below the slack) and
    their rounding, which is that of the jump-by-jump sums, of the closed
    forms and of this test, plus quad_tol ||scale|| for each grid row and
    density piece that takes quad.  So every dropped abscissa's margin is
    strictly larger than the least margin of the kept ones, and the small-x
    report, its first-of-least witness included, is the one read from all 16.
    """
    bounds = C * x0 / small
    var = bv.variation_bound(float(t_grid[-1]))
    quad_rows = t_grid.size * sum(float(vector_norm(p.scale_array(), bv.norm_kind))
                                  for p in bv.pieces if p.exponent)
    slack = _SMALL_X_SLACK * (var + bounds) + quad_tol * quad_rows
    return small[~(bounds - var - slack > bounds[-1])]  # a nan bound keeps its abscissa


def check_certificate(bv: BVFunction, cert: TauberianCertificate,
                      t_grid: np.ndarray | None = None, x_grid: np.ndarray | None = None,
                      quad_tol: float = 1e-10) -> list[Check]:
    """The ratio condition and the four bounds it yields at x0, from one sweep.

    In this order: sup x ||G(x, t)|| against C over the grid pairs with t > T
    and x0 <= x <= R(t) (a grid with none raises ValueError: a check of
    nothing proves nothing); then, with the per-line constant c = C / x0, the
    line bounds c (1 + |y|/x0) at y = 0 and y = 2 x0, the tail bound
    c (3 + |y|/x0) at y = 2 x0 up to tail_truncation_point, and the small-x
    bound c x0 / x at the worst of 16 points in [x0/100, x0].  A point is
    swept only where the variation bound of A cannot settle it: where c x0 / x
    exceeds the bound at x0 by more than that variation, its margin is larger
    than the one at x0, so dropping it leaves the report as it was
    (_small_x_abscissas).  The bounds assume the ratio hypothesis
    sup_t ||G(x0, t)|| <= c, read from the same sweep, and are marked
    hypothesis_failed where it fails.  A certificate that makes one of these
    bounds infinite raises ValueError: a check against inf passes vacuously.
    t_grid defaults to make_t_grid(bv), x_grid to 64 points from x0 to
    min(1000 x0, R(t_max)).
    """
    t_grid = make_t_grid(bv)[0] if t_grid is None else np.asarray(t_grid, dtype=float)
    x0, C, y = cert.x0, cert.C / cert.x0, 2.0 * cert.x0
    if not x0 * 1e-2 > 0:
        raise ValueError(f"certificate x0 = {x0:g} leaves no small-x grid [x0/100, x0]: "
                         f"x0/100 rounds to 0")
    small = make_x_grid(x0 * 1e-2, x0, 16)
    # the largest bounds: the tail's c (3 + 2) tops both lines, and the small-x bound c x0 / x
    # is largest at x0 / 100
    for name, bound in (("tail", tail_bound(C, x0, y)), ("small-x", C * x0 / float(small[0]))):
        if not math.isfinite(bound):
            raise ValueError(f"certificate C = {cert.C:g}, x0 = {x0:g} makes the {name} bound "
                             f"{bound:g}; every bound must be finite")
    starts = _ratio_starts(cert, t_grid, x_grid)
    small = _small_x_abscissas(bv, C, x0, small, t_grid, quad_tol)
    sups, ratio = _sweep_sups(bv, [*starts, x0, complex(x0, y), *small], t_grid, quad_tol,
                              starts)
    xs = list(ratio)
    best = xs[int(np.argmax([ratio[x][0] for x in xs]))]
    reports = [_report("tauberian_condition", ratio[best], cert.C, best.real, t_grid)]
    holds = sups[complex(x0)][0] <= C * (1.0 + REL_TOL)
    failed = "" if holds else f"ratio hypothesis fails at x = {x0:g}"
    for v in (0.0, y):
        reports.append(_report(f"line_bound_x{x0:g}_y{v:g}", sups[complex(x0, v)],
                               C * (1.0 + abs(v) / x0), x0, t_grid, failed))
    v_max = tail_truncation_point(C, x0, y, float(t_grid[-1]))
    tail = weighted_tail_grid(bv, [complex(x0, y)], t_grid, v_max, quad_tol)[0]
    reports.append(_report(f"tail_bound_x{x0:g}_y{y:g}", _sup(vector_norm(tail, bv.norm_kind)),
                           tail_bound(C, x0, y), x0, t_grid, failed, f"v_max={v_max:g}"))
    failed = "" if holds else f"ratio hypothesis fails at x0 = {x0:g}"
    reports.append(min((_report("small_x_bound", sups[complex(x)], C * x0 / float(x), float(x),
                                t_grid, failed) for x in small),
                       key=lambda rep: rep.margin))  # the first of least margin
    return reports


# -- growth-bound admissibility on the left strip ----------------------------------


def check_admissibility(f_ext, M: GrowthBound, y_grid=None,
                        norm_kind: str = "euclidean") -> Check:
    """Grid check of ||f(x+iy)|| <= M(|y|) on the strip -1/M(|y|) < x <= 0, at _STRIP_DEPTHS.

    The value is the worst excess ||f|| - M(|y|) (so admissible means <= 0);
    singular sample points count as +inf excess.
    """
    y_grid = np.linspace(-20.0, 20.0, 801) if y_grid is None else np.asarray(y_grid, float)
    m_vals = np.asarray(M(np.abs(y_grid)), dtype=float)
    x = -np.asarray(_STRIP_DEPTHS, dtype=float)[:, None] / m_vals
    vals = np.asarray(f_ext((x + 1j * y_grid).ravel()), dtype=complex).reshape(x.size, -1)
    norms = np.asarray(vector_norm(vals, norm_kind), dtype=float).reshape(x.shape)
    finite = np.isfinite(norms)
    worst, j = _sup((np.where(finite, norms, math.inf) - m_vals).ravel())
    i, k = divmod(j, y_grid.size)  # the witness's depth row and ordinate
    note = (f"strip depths {_STRIP_DEPTHS} of 1/M(|y|), {y_grid.size} ordinates in "
            f"[{y_grid.min():g}, {y_grid.max():g}]")
    if not finite.all():
        note += "; singular sample encountered"
    return _report("admissibility", (worst, k), 0.0, float(x[i, k]), y_grid, note=note)
