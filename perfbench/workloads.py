"""Seeded workloads: generated problem files, CLI command lists, output checks.

A workload is a list of `tauberian-lab` invocations over problem files that
are generated from the seed.  The seed changes values (coefficients, times,
radii, density parameters), never the amount of work: jump counts, grid sizes
and contour node counts are the same for every seed.

Each command carries a check that reads the CSV body (and the metadata JSON
the CLI writes to stderr) and returns a list of problems; an empty list means
the output is correct.  The checks recompute what they can from plain numpy,
independently of the package.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

N_MAX = 50_000           # jumps of every Dirichlet workload
RESIDUAL_TOL = 1e-6      # the CLI's default --residual-tol
REL_TOL = 1e-10          # agreement of engine values with the references here

# build_contour gives each half-circle ceil(pi (R (t + 2) + 4) / 1.2) panels of
# 16 nodes.  Drawing R in [1.45, 1.52] and setting t = _CONTOUR_PHASE / R - 2
# keeps that count (496 nodes per arc) and the left path's (544 nodes) the
# same for every seed.
_CONTOUR_PHASE = 7.5

_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


@dataclass(frozen=True)
class Command:
    label: str
    args: tuple[str, ...]
    check: Callable[[str, dict], list[str]]
    dump: Path | None = None


def _write(path: Path, obj: dict) -> str:
    path.write_text(json.dumps(obj, indent=1) + "\n")
    return str(path)


def _rows(body: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(body)))


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _close(got: float, ref: float, rel: float = REL_TOL, abs_tol: float = 1e-15) -> bool:
    return abs(got - ref) <= abs_tol + rel * abs(ref)


def _norm(v: np.ndarray, norm: str) -> float:
    return float(np.linalg.norm(v) if norm == "euclidean" else np.max(np.abs(v)))


def _bound_problems(rows: list[dict], expected: dict[str, float]) -> list[str]:
    """Case list, printed bounds, and nonnegative margins of a verify table."""
    cases = [r["case_id"] for r in rows]
    if cases != list(expected) + ["small_x_bound"]:
        return [f"verify cases {cases}"]
    problems = [f"{r['case_id']} bound {r['bound']} != {expected[r['case_id']]!r}"
                for r in rows if r["case_id"] in expected
                and not _close(float(r["bound"]), expected[r["case_id"]], 1e-12)]
    problems += [f"{r['case_id']} margin {r['margin']} < 0" for r in rows
                 if not float(r["margin"]) >= 0.0]
    return problems


# -- jumps-contour ---------------------------------------------------------------


def jumps_contour(seed: int, work: Path) -> list[Command]:
    """contour --dump at one (t, R), then a dirichlet decay table."""
    rng = random.Random(seed)
    radius = rng.uniform(1.45, 1.52)
    t = _CONTOUR_PHASE / radius - 2.0
    t_lo, t_hi, t_points = rng.uniform(0.5, 1.5), rng.uniform(9.5, 10.5), 24
    problem = _write(work / "alternating.json", {
        "name": "bench-alternating", "norm": "euclidean",
        "dirichlet": {"coefficients": "alternating", "n_max": N_MAX},
        "growth": {"kind": "affine", "params": {"c": 1.25}},
        "extension": {"kind": "eta_shift", "params": {"terms": 96}}})
    dump = work / "contour_dump.csv"

    def check_contour(body: str, meta: dict) -> list[str]:
        rows = _rows(body)
        if len(rows) != 1:
            return [f"contour printed {len(rows)} rows, expected 1"]
        row = rows[0]
        problems = []
        if float(row["t"]) != t or float(row["R"]) != radius:
            problems.append(f"contour row at t={row['t']}, R={row['R']}")
        if not float(row["residual"]) <= RESIDUAL_TOL:
            problems.append(f"contour residual {row['residual']} > {RESIDUAL_TOL}")
        for term in ("I", "II", "III"):
            if not float(row[f"{term}_measured"]) <= float(row[f"{term}_bound"]):
                problems.append(f"contour term {term} above its bound")
        return problems

    n = np.arange(1, N_MAX + 1)
    partial = np.cumsum(np.where(n % 2 == 1, 1.0, -1.0) / n)
    log_n = np.log(n.astype(float))
    grid = np.linspace(t_lo, t_hi, t_points)

    def check_dirichlet(body: str, meta: dict) -> list[str]:
        rows = _rows(body)
        if [float(r["t"]) for r in rows] != grid.tolist():
            return ["dirichlet rows do not follow the requested t grid"]
        problems = []
        for r in rows:
            k = int(np.searchsorted(log_n, float(r["t"]), side="left"))
            ref = abs((partial[k - 1] if k else 0.0) - math.log(2.0))
            if not _close(float(r["decay_norm"]), ref, 1e-10):
                problems.append(f"decay_norm {r['decay_norm']} at t={r['t']} != {ref!r}")
        return problems

    return [
        Command("contour", ("contour", "--problem", problem, "--t-grid", f"{t!r}:{t!r}:1",
                            "--radius", repr(radius), "--seed", str(seed % 2**32),
                            "--dump", str(dump)), check_contour, dump),
        Command("dirichlet", ("dirichlet", "--problem", problem,
                              "--t-grid", f"{t_lo!r}:{t_hi!r}:{t_points}"), check_dirichlet),
    ]


# -- verify tables ---------------------------------------------------------------

_CUTOFF = 50.0  # e^{-50}: where the references stop summing decayed terms


def _verify_check(C: float, x_grid: np.ndarray, rule, partial, tail):
    """Check a verify table row by row against references at its witness t.

    partial(x, y, t) = ||e^{-xt} int_0^t e^{(x+iy)s} dA(s)|| and
    tail(x, y, t, v) = ||e^{xt} int_t^v e^{-(x+iy)s} dA(s)||.  The ratio row is
    the largest x * partial(x, 0, t) over the x grid with x <= rule(t); the
    small-x row sits at x = C / bound.
    """
    expected = {"tauberian_condition": C, "line_bound_x1_y0": C,
                "line_bound_x1_y2": 3 * C, "tail_bound_x1_y2": 5 * C}

    def reference(row: dict, v_max: float) -> float:
        case, t = row["case_id"], float(row["witness_t"])
        if case == "tauberian_condition":
            return max(x * partial(x, 0.0, t) for x in x_grid if x <= rule(t))
        if case.startswith("line_bound"):
            return partial(1.0, float(case.rsplit("_y", 1)[1]), t)
        if case == "tail_bound_x1_y2":
            return tail(1.0, 2.0, t, v_max)
        return partial(C / float(row["bound"]), 0.0, t)

    def check(body: str, meta: dict) -> list[str]:
        rows = _rows(body)
        problems = _bound_problems(rows, expected)
        if problems:
            return problems
        v_max = float(meta["notes"]["tail_bound_x1_y2"].split("v_max=")[1])
        for row in rows:
            got, ref = float(row["grid_sup"]), reference(row, v_max)
            if not _close(got, ref):
                problems.append(f"{row['case_id']} grid_sup {got!r} != reference {ref!r} "
                                f"at t={row['witness_t']}")
        return problems

    return check


# -- jumps-verify ----------------------------------------------------------------

_PERIOD = 6
_JUMPS_X_GRID = (1.0, 1000.0, 8)


def jumps_verify(seed: int, work: Path) -> list[Command]:
    """verify with the default t grid on a periodic 2-vector series, both norms."""
    rng = random.Random(seed)
    table = np.asarray([[complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
                         for _ in range(2)] for _ in range(_PERIOD)])
    n = np.arange(1, N_MAX + 1)
    log_n = np.log(n.astype(float))
    sizes = table[(n - 1) % _PERIOD] / n[:, None]
    commands = []
    for norm in ("euclidean", "sup"):
        problem = _write(work / f"periodic_{norm}.json", {
            "name": f"bench-periodic-{norm}", "norm": norm,
            "dirichlet": {"coefficients": {"kind": "periodic",
                                           "values": [[_pair(c) for c in row] for row in table]},
                          "n_max": N_MAX},
            "growth": {"kind": "affine", "params": {"c": 2.0}}})

        def partial(x, y, t, norm=norm):
            k = int(np.searchsorted(log_n, t, side="left"))
            return _norm(np.exp((x + 1j * y) * log_n[:k] - x * t) @ sizes[:k], norm)

        def tail(x, y, t, v, norm=norm):
            lo = int(np.searchsorted(log_n, t, side="left"))
            hi = int(np.searchsorted(log_n, min(v, t + _CUTOFF / x), side="left"))
            return _norm(np.exp(-(x + 1j * y) * log_n[lo:hi] + x * t) @ sizes[lo:hi], norm)

        C = math.e * max(1.0, max(_norm(row, norm) for row in table))
        commands.append(Command(
            f"verify-{norm}",
            ("verify", "--problem", problem, "--x-grid", "{!r}:{!r}:{}".format(*_JUMPS_X_GRID)),
            _verify_check(C, np.geomspace(*_JUMPS_X_GRID), math.exp, partial, tail)))
    return commands


# -- densities-verify ------------------------------------------------------------

_DENSITY_T_GRID = "0:40:120"
_DENSITY_X_GRID = (1.0, 100.0, 16)
_RATE_T_GRID = (1.0, 40.0, 160)
_GROWTH_C = 2.0


def _piece_sup(piece: dict) -> float:
    """sup of |base(s)| over the piece's interval."""
    lo, hi = piece["from"], math.inf if piece["to"] == "inf" else piece["to"]
    kind = piece["kind"]
    if kind == "constant":
        return 1.0
    if kind == "exponential":
        return math.exp(piece["rate"] * lo)
    if kind == "power":
        return hi ** piece["exponent"]
    p, r = piece["exponent"], -piece["rate"]
    peak = min(max(p / r, lo), hi)
    return peak ** p * math.exp(-r * peak)


def _piece_base(piece: dict, s: np.ndarray) -> np.ndarray:
    kind = piece["kind"]
    if kind == "constant":
        return np.ones_like(s)
    if kind == "exponential":
        return np.exp(piece["rate"] * s)
    if kind == "power":
        return s ** piece["exponent"]
    return s ** piece["exponent"] * np.exp(piece["rate"] * s)


def _graded_integral(f, lo: float, hi: float, panel: float) -> complex:
    """int_lo^hi f(s) ds by Gauss-Legendre on panels no longer than `panel`,
    geometrically graded towards lo so an algebraic endpoint costs nothing."""
    if hi <= lo:
        return 0j
    length = hi - lo
    edges = lo + length * np.concatenate(([0.0], np.geomspace(2.0 ** -50, 1.0, 51)))
    uniform = np.linspace(lo, hi, int(math.ceil(length / panel)) + 1)
    edges = np.unique(np.concatenate((edges, uniform)))
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    s = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    w = (half[:, None] * _GL_W[None, :]).ravel()
    return complex(np.sum(w * f(s)))


def densities_verify(seed: int, work: Path) -> list[Command]:
    """verify and rate on a seeded 2-vector density mix, contour on an exp density."""
    rng = random.Random(seed)

    def scale(lo: float, hi: float) -> list[complex]:
        return [cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi)) for _ in range(2)]

    # the breakpoints are fixed: they decide how many grid segments reach quad
    pieces = [
        {"from": 0.0, "to": 2.0, "kind": "constant", "scale": scale(0.5, 1.0)},
        {"from": 2.0, "to": "inf", "kind": "exponential", "scale": scale(0.3, 1.0),
         "rate": -rng.uniform(0.2, 1.0)},
        {"from": 0.0, "to": 4.5, "kind": "power", "scale": scale(0.1, 0.3),
         "exponent": rng.uniform(0.5, 1.5)},
        {"from": 1.0, "to": "inf", "kind": "damped_power",
         "scale": scale(0.2, 0.6), "exponent": rng.uniform(0.5, 2.0),
         "rate": -rng.uniform(0.5, 1.5)},
    ]
    # ||a(s)|| <= sum of ||scale|| sup|base|, and x e^{-xt} int_0^t e^{xs} a(s) ds
    # is bounded by sup ||a||, so this C makes every check pass
    C = sum(float(np.linalg.norm(p["scale"])) * _piece_sup(p) for p in pieces)
    mix = _write(work / "density_mix.json", {
        "name": "bench-density-mix", "dimension": 2, "norm": "euclidean",
        "densities": [{**p, "scale": [_pair(c) for c in p["scale"]]} for p in pieces],
        "certificate": {"C": C, "x0": 1.0, "T": 0.0},
        "growth": {"kind": "constant", "params": {"c": _GROWTH_C}}})

    lam, amp = rng.uniform(0.8, 1.25), rng.uniform(0.5, 1.0)
    exp_problem = _write(work / "exp_density.json", {
        "name": "bench-exp-density", "dimension": 1, "norm": "euclidean",
        "densities": [{"from": 0.0, "to": "inf", "kind": "exponential", "scale": [amp],
                       "rate": -lam}],
        "certificate": {"C": amp, "x0": 1.0, "T": 0.0},
        "growth": {"kind": "constant", "params": {"c": _GROWTH_C}},
        "extension": {"kind": "rational",
                      "params": {"numerator": [amp], "denominator": [lam, 1.0]}},
        "f0": [amp / lam]})

    def integral(weight, lo: float, hi: float, panel: float) -> np.ndarray:
        # int_lo^hi weight(s) a(s) ds, piece by piece
        total = np.zeros(2, dtype=complex)
        for p in pieces:
            end = math.inf if p["to"] == "inf" else p["to"]
            total += np.asarray(p["scale"]) * _graded_integral(
                lambda s: weight(s) * _piece_base(p, s), max(lo, p["from"]), min(hi, end), panel)
        return total

    def partial(x, y, t):
        weight = lambda s: np.exp((x + 1j * y) * s - x * t)  # noqa: E731
        return float(np.linalg.norm(integral(weight, max(0.0, t - _CUTOFF / x), t,
                                             0.5 / max(1.0, x))))

    def tail(x, y, t, v):
        weight = lambda s: np.exp(-(x + 1j * y) * s + x * t)  # noqa: E731
        return float(np.linalg.norm(integral(weight, t, min(v, t + _CUTOFF / x),
                                             0.5 / max(1.0, x))))

    check_verify = _verify_check(C, np.geomspace(*_DENSITY_X_GRID), lambda t: math.inf,
                                 partial, tail)
    rate_grid = np.linspace(*_RATE_T_GRID)

    def check_rate(body: str, meta: dict) -> list[str]:
        rows = _rows(body)
        if [float(r["t"]) for r in rows] != rate_grid.tolist():
            return ["rate rows do not follow the requested t grid"]
        problems = []
        for r in rows:
            t, R = float(r["t"]), float(r["R_opt"])
            M = _GROWTH_C
            bound = 10 * C / R + M / (t * R ** 3) + 2 * R * M * M * math.exp(-t / (2 * M))
            if r["branch"] != "opt_inside" or not _close(float(r["bound_B"]), bound, 1e-12):
                problems.append(f"rate row t={r['t']}: bound_B {r['bound_B']} != {bound!r}")
        return problems

    exp_grid = (4.0, 6.0, 3)

    def check_exp_contour(body: str, meta: dict) -> list[str]:
        rows = _rows(body)
        if [float(r["t"]) for r in rows] != np.linspace(*exp_grid).tolist():
            return ["contour rows do not follow the requested t grid"]
        return [f"contour residual {r['residual']} at t={r['t']}" for r in rows
                if not float(r["residual"]) <= RESIDUAL_TOL]

    lo, hi, count = _RATE_T_GRID
    return [
        Command("verify", ("verify", "--problem", mix, "--t-grid", _DENSITY_T_GRID,
                           "--x-grid", "{!r}:{!r}:{}".format(*_DENSITY_X_GRID)), check_verify),
        Command("rate", ("rate", "--problem", mix, "--t-grid", f"{lo!r}:{hi!r}:{count}"),
                check_rate),
        Command("contour", ("contour", "--problem", exp_problem,
                            "--t-grid", "{!r}:{!r}:{}".format(*exp_grid),
                            "--radius", "2.0", "--seed", str(seed % 2**32)),
                check_exp_contour),
    ]


WORKLOADS = {
    "jumps-contour": jumps_contour,
    "jumps-verify": jumps_verify,
    "densities-verify": densities_verify,
}
