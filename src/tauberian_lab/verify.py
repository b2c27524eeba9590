"""Grid verification of the Tauberian condition and its companion bounds.

Every check sweeps the relevant weighted integral over a hybrid time grid
(uniform base plus geometric refinement just after each jump, where suprema
are attained as t decreases to the jump) and reports a SupReport: the grid
supremum, the asserted bound, their margin, and the witnessing grid point.
Negative margins are reported, never raised; callers decide what to do.

Checks whose statement assumes a hypothesis (the ratio bound at a given
abscissa) verify that hypothesis on the same grid first and mark the report
as hypothesis_failed instead of silently checking a vacuous claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bv import BVFunction, weighted_partial, weighted_partial_grid, weighted_tail_grid
from .transform import TauberianCertificate
from .vectors import vector_norm

HYPOTHESIS_SLACK = 1e-9  # relative slack when pre-checking a hypothesis on a grid


@dataclass(frozen=True)
class GridSpec:
    t_max: float
    base_points: int
    jump_points: int
    jump_window: float
    refined_jumps: int
    total_points: int

    def describe(self) -> str:
        return (f"t in [0, {self.t_max:g}], {self.base_points} uniform + "
                f"{self.jump_points} geometric per jump (window {self.jump_window:g}, "
                f"{self.refined_jumps} jumps refined), {self.total_points} points")


@dataclass(frozen=True)
class SupReport:
    case_id: str
    grid_sup: float
    bound: float
    witness_t: float
    grid: GridSpec | None = None
    witness_x: float | None = None
    hypothesis_failed: bool = False
    note: str = ""

    @property
    def margin(self) -> float:
        return self.bound - self.grid_sup

    def passed(self, rel_tol: float = 1e-9) -> bool:
        return (not self.hypothesis_failed) and self.margin >= -rel_tol * abs(self.bound)


def make_t_grid(bv: BVFunction, t_max: float = 50.0, base_points: int = 512,
                jump_points: int = 64, jump_window: float = 0.1,
                max_refined_jumps: int = 128) -> tuple[np.ndarray, GridSpec]:
    """Uniform grid on [0, t_max] plus geometric tails in (tau, tau + window]."""
    parts = [np.linspace(0.0, t_max, base_points)]
    taus = bv.jump_times[bv.jump_times < t_max][:max_refined_jumps]
    if taus.size and jump_points > 0:
        offsets = jump_window * np.geomspace(1e-6, 1.0, jump_points)
        refined = (taus[:, None] + offsets[None, :]).ravel()
        parts.append(refined[refined <= t_max])
    grid = np.unique(np.concatenate(parts))
    spec = GridSpec(t_max=t_max, base_points=base_points, jump_points=jump_points,
                    jump_window=jump_window, refined_jumps=int(taus.size),
                    total_points=int(grid.size))
    return grid, spec


def make_x_grid(x_min: float, x_max: float, points: int = 64) -> np.ndarray:
    if not (0 < x_min <= x_max):
        raise ValueError("x grid needs 0 < x_min <= x_max")
    if x_min == x_max:
        return np.asarray([x_min])
    return np.geomspace(x_min, x_max, points)


def _grid_norms(bv: BVFunction, zs: np.ndarray, t_grid: np.ndarray,
                quad_tol: float) -> np.ndarray:
    """(m, n) norms of the sweep at an (m,) array of abscissas, from one sweep call.

    The norms are taken one abscissa at a time, so that no temporary as large
    as the (m, n, d) sweep joins it.
    """
    vals = weighted_partial_grid(bv, zs, t_grid, quad_tol)
    norms = np.empty(vals.shape[:2])
    for row, v in zip(norms, vals):
        row[:] = vector_norm(v, bv.norm_kind)
    return norms


def _span(grid: np.ndarray) -> str:
    return f"[{np.min(grid):g}, {np.max(grid):g}]" if grid.size else "[] (empty)"


def check_tauberian(bv: BVFunction, cert: TauberianCertificate,
                    t_grid: np.ndarray | None = None, x_grid: np.ndarray | None = None,
                    quad_tol: float = 1e-10, grid_spec: GridSpec | None = None) -> SupReport:
    """sup over the grid of || x e^{-xt} int_0^t e^{xs} dA || against C.

    Only pairs with t > cert.T and cert.x0 <= x <= R_rule(t) participate, and
    every x with at least one such t is swept in one call.  A grid with no
    such pair raises ValueError: a check of nothing proves nothing.
    """
    if t_grid is None:
        t_grid, grid_spec = make_t_grid(bv)
    t_grid = np.asarray(t_grid, dtype=float)
    if x_grid is None:
        x_hi = cert.x0 * 1e3
        rule_hi = float(cert.R_rule(t_grid[-1]))
        if math.isfinite(rule_hi):
            x_hi = min(x_hi, rule_hi)
        x_grid = make_x_grid(cert.x0, max(cert.x0, x_hi))
    x_grid = np.asarray(x_grid, dtype=float)
    x_grid = x_grid[x_grid >= cert.x0 * (1.0 - 1e-12)]
    if x_grid.size == 0:
        raise ValueError("x grid is empty after applying the certificate abscissa x0")
    rule_vals = np.asarray(cert.R_rule(t_grid), dtype=float)
    masks = (t_grid > cert.T) & (rule_vals >= x_grid[:, None])
    live = np.flatnonzero(masks.any(axis=1))
    if live.size == 0:
        raise ValueError(f"ratio condition has nothing to check: no grid point has t > T = "
                         f"{cert.T:g} and x0 = {cert.x0:g} <= x <= R(t); the grids hold t in "
                         f"{_span(t_grid)} and x in {_span(x_grid)}")
    xs = x_grid[live]
    norms = _grid_norms(bv, xs.astype(complex), t_grid, quad_tol)
    norms *= xs[:, None]
    norms[~masks[live]] = -math.inf
    witness = np.argmax(norms, axis=1)
    sups = norms[np.arange(xs.size), witness]
    best = int(np.argmax(sups))
    return SupReport(case_id="tauberian_condition", grid_sup=float(sups[best]), bound=cert.C,
                     witness_t=float(t_grid[witness[best]]), grid=grid_spec,
                     witness_x=float(xs[best]))


def _hypothesis_holds(norms: np.ndarray, C: float) -> bool:
    """The ratio hypothesis sup_t ||G(x, t)|| <= C, given the norms of the sweep at x."""
    return float(np.max(norms)) <= C * (1.0 + HYPOTHESIS_SLACK)


def check_line_bound(bv: BVFunction, C: float, x: float, y: float,
                     t_grid: np.ndarray | None = None, quad_tol: float = 1e-10,
                     grid_spec: GridSpec | None = None) -> SupReport:
    """|| e^{-xt} int_0^t e^{(x+iy)s} dA || against C (1 + |y|/x).

    Pre-checks the ratio hypothesis at abscissa x on the same grid, in the
    same call as the sweep at x + iy; at y = 0 the hypothesis sweep is the
    one the bound reads.
    """
    if not x > 0:
        raise ValueError("line bound needs x > 0")
    if t_grid is None:
        t_grid, grid_spec = make_t_grid(bv)
    t_grid = np.asarray(t_grid, dtype=float)
    case = f"line_bound_x{x:g}_y{y:g}"
    zs = [complex(x)] if y == 0 else [complex(x), complex(x, y)]
    sweeps = _grid_norms(bv, np.asarray(zs), t_grid, quad_tol)
    hyp_ok = _hypothesis_holds(sweeps[0], C)
    norms = sweeps[-1]
    j = int(np.argmax(norms))
    return SupReport(case_id=case, grid_sup=float(norms[j]), bound=C * (1.0 + abs(y) / x),
                     witness_t=float(t_grid[j]), grid=grid_spec, witness_x=x,
                     hypothesis_failed=not hyp_ok,
                     note="" if hyp_ok else f"ratio hypothesis fails at x = {x:g}")


def tail_truncation_point(C: float, x: float, y: float, t_max: float,
                          remainder_tol: float = 1e-6) -> float:
    """Smallest v with the certified remainder C (3 + |y|/x) e^{x(t-v)} <= tol."""
    amp = C * (3.0 + abs(y) / x)
    extra = math.log(amp / remainder_tol) / x if amp > remainder_tol else 0.0
    return t_max + max(0.0, extra)


def check_tail_bound(bv: BVFunction, C: float, x: float, y: float,
                     t_grid: np.ndarray | None = None, v_max: float | None = None,
                     remainder_tol: float = 1e-6, quad_tol: float = 1e-10,
                     grid_spec: GridSpec | None = None) -> SupReport:
    """|| e^{xt} int_t^{v} e^{-(x+iy)s} dA || against C (3 + |y|/x).

    v defaults to the point where the certified remainder beyond it is below
    remainder_tol for every grid t.
    """
    if not x > 0:
        raise ValueError("tail bound needs x > 0")
    if t_grid is None:
        t_grid, grid_spec = make_t_grid(bv)
    t_grid = np.asarray(t_grid, dtype=float)
    if v_max is None:
        v_max = tail_truncation_point(C, x, y, float(t_grid[-1]), remainder_tol)
    hyp_ok = _hypothesis_holds(_grid_norms(bv, np.asarray([complex(x)]), t_grid, quad_tol)[0], C)
    vals = weighted_tail_grid(bv, complex(x, y), t_grid, v_max, quad_tol)
    norms = np.asarray(vector_norm(vals, bv.norm_kind), dtype=float)
    j = int(np.argmax(norms))
    case = f"tail_bound_x{x:g}_y{y:g}"
    return SupReport(case_id=case, grid_sup=float(norms[j]), bound=C * (3.0 + abs(y) / x),
                     witness_t=float(t_grid[j]), grid=grid_spec, witness_x=x,
                     hypothesis_failed=not hyp_ok,
                     note=f"v_max={v_max:g}" if hyp_ok
                     else f"ratio hypothesis fails at x = {x:g}; v_max={v_max:g}")


def check_small_x_bound(bv: BVFunction, C: float, x0: float,
                        x_grid: np.ndarray | None = None,
                        t_grid: np.ndarray | None = None, quad_tol: float = 1e-10,
                        grid_spec: GridSpec | None = None) -> SupReport:
    """Rescaled ratio bound C x0 / x for 0 < x <= x0; reports the worst x.

    Pre-checks the hypothesis at x0 itself.  One call sweeps the grid, plus
    x0 when the grid misses it (the default grid ends there).
    """
    if not x0 > 0:
        raise ValueError("small-x check needs x0 > 0")
    if t_grid is None:
        t_grid, grid_spec = make_t_grid(bv)
    t_grid = np.asarray(t_grid, dtype=float)
    if x_grid is None:
        x_grid = make_x_grid(x0 * 1e-2, x0, 16)
    x_grid = np.asarray(x_grid, dtype=float)
    if np.any(x_grid <= 0) or np.any(x_grid > x0 * (1 + 1e-12)):
        raise ValueError("small-x grid must lie in (0, x0]")
    xs = x_grid if np.any(x_grid == x0) else np.append(x_grid, x0)
    sweeps = _grid_norms(bv, xs.astype(complex), t_grid, quad_tol)
    hyp_ok = _hypothesis_holds(sweeps[int(np.flatnonzero(xs == x0)[0])], C)
    worst: SupReport | None = None
    for x, norms in zip(x_grid, sweeps):
        j = int(np.argmax(norms))
        rep = SupReport(case_id="small_x_bound", grid_sup=float(norms[j]),
                        bound=C * x0 / float(x), witness_t=float(t_grid[j]),
                        grid=grid_spec, witness_x=float(x),
                        hypothesis_failed=not hyp_ok,
                        note="" if hyp_ok else f"ratio hypothesis fails at x0 = {x0:g}")
        if worst is None or rep.margin < worst.margin:
            worst = rep
    assert worst is not None
    return worst


# -- the delayed-step counterexample ------------------------------------------


def delayed_step(T: float, size: complex = 1.0, norm_kind: str = "euclidean") -> BVFunction:
    """Unit-style integrator with a single jump at T."""
    return BVFunction.single_jump(T, size, norm_kind=norm_kind)


def delayed_step_ratio(T: float, x: float, t: float, quad_tol: float = 1e-12) -> float:
    """|| e^{-xt} int_0^t e^{xs} dA || for the unit jump at T.

    Closed form: 0 for t <= T, e^{x(T-t)} after.  The machine evaluation is
    cross-checked against it to 1e-12; for x > 1 the value exceeds 1/x right
    after T, so no bound C/x with C < 1 can hold down to t = T.
    """
    if not x > 0:
        raise ValueError("the ratio is studied for x > 0")
    bv = delayed_step(T)
    val = weighted_partial(bv, complex(x), t, quad_tol)
    computed = float(vector_norm(val, bv.norm_kind))
    closed = 0.0 if t <= T else math.exp(x * (T - t))
    if abs(computed - closed) > 1e-12 * max(1.0, closed):
        raise ArithmeticError(
            f"delayed-step ratio disagrees with its closed form at t = {t!r}: "
            f"{computed!r} vs {closed!r}")
    return computed


def delayed_step_restart(T: float, x: float) -> float:
    """A sufficient restart time after which the ratio drops below 1/x.

    The exact crossing is T + log(x)/x; adding 1 keeps the margin strict.
    (Choice made here; any point beyond the crossing works.)
    """
    if not x > 0:
        raise ValueError("restart time is defined for x > 0")
    return T + math.log(x) / x + 1.0
