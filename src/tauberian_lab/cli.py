"""Command-line front end: problem files in, CSV tables out.

Exit codes: 0 success, 1 when any checked bound reports a negative margin
(or the identity residual exceeds its tolerance), 2 on input errors.  Every
output is accompanied by a metadata block (JSON sidecar next to --out, or
stderr when printing to stdout); CSV bodies themselves are deterministic.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__
from .contour import (ContourBudgetError, cauchy_identity_report, contour_dump,
                      extension_agreement, term_bounds)
from .dirichlet import partial_sum_decay
from .growth import GrowthDomainError
from .problems import Problem, ProblemFormatError, load_problem
from .rates import (RateInputs, decay_rate, k_prime, t_prime,
                    t_prime_second_term_clamped)
from .transform import TruncationCapError
from .verify import (check_line_bound, check_small_x_bound, check_tail_bound,
                     check_tauberian, make_t_grid, thread_cap)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
_MARGIN_REL_TOL = 1e-9


def _fmt(value) -> str:
    # repr(float) is the shortest round-trip form, stable across runs
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _emit(out: str | None, body: str, meta: dict) -> None:
    meta = dict(meta)
    meta["tool"] = "tauberian-lab"
    meta["version"] = __version__
    meta["threads"] = thread_cap()
    meta["generated_at"] = datetime.now(timezone.utc).isoformat()
    if out:
        Path(out).write_text(body)
        Path(f"{out}.meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True, default=str) + "\n")
    else:
        click.echo(body, nl=False)
        click.echo(json.dumps(meta, indent=2, sort_keys=True, default=str), err=True)


def _input_error(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_INPUT)


def _load(problem_path: str) -> Problem:
    try:
        return load_problem(problem_path)
    except ProblemFormatError as exc:
        _input_error(str(exc))


def _parse_grid(spec: str, flag: str, spacing: str) -> np.ndarray:
    """Either a:b:n (n points, spacing per command) or a comma list of values."""
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError("expected a:b:n")
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
            if n < 1:
                raise ValueError("point count must be >= 1")
            if n == 1:
                if a != b:
                    raise ValueError("a single-point grid needs a == b")
                return np.asarray([a])
            if not a < b:
                raise ValueError("grid needs a < b")
            if spacing == "log":
                if a <= 0:
                    raise ValueError("log-spaced grid needs a > 0")
                return np.geomspace(a, b, n)
            return np.linspace(a, b, n)
        vals = np.asarray([float(v) for v in spec.split(",") if v.strip()])
        if vals.size == 0:
            raise ValueError("no grid values given")
        if np.any(np.diff(vals) <= 0):
            raise ValueError("comma-list values must be strictly increasing")
        return vals
    except ValueError as exc:
        _input_error(f"{flag} {spec!r}: {exc}")


@click.group()
@click.version_option(__version__, prog_name="tauberian-lab")
def main():
    """Numerical laboratory for quantified decay bounds of Laplace-Stieltjes
    transforms: rate tables, sup-bound verification, contour identities, and
    Dirichlet-series experiments driven by JSON problem files."""


@main.command()
@click.option("--problem", "problem_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Problem file (JSON).")
@click.option("--t-grid", "t_grid_spec", default="1:50:50", show_default=True,
              help="Times, a:b:n linear or comma list; rows only for t > T'.")
@click.option("--out", default=None, type=click.Path(dir_okay=False),
              help="CSV destination (stdout if omitted); metadata goes to <out>.meta.json.")
def rate(problem_path, t_grid_spec, out):
    """Decay-rate table: optimal radius, branch, and bound along a t grid."""
    prob = _load(problem_path)
    try:
        growth = prob.require_growth()
    except ProblemFormatError as exc:
        _input_error(str(exc))
    grid = _parse_grid(t_grid_spec, "--t-grid", "linear")
    inputs = RateInputs(C=prob.certificate.C, M=growth, T=prob.certificate.T,
                        R_rule=prob.certificate.R_rule)
    threshold = t_prime(inputs)
    rows = []
    skipped = 0
    for t in grid:
        if not t > threshold:
            skipped += 1
            continue
        try:
            res = decay_rate(inputs, float(t))
        except (GrowthDomainError, ArithmeticError, ValueError) as exc:
            _input_error(f"t = {t:g}: {exc}")
        rows.append((res.t, res.R_opt, res.R_rule_t, res.branch, res.bound, res.rate_shape))
    body = _csv_text(("t", "R_opt", "R_rule_t", "branch", "bound_B", "rate_shape"), rows)
    meta = {"command": "rate", "problem": prob.source, "problem_name": prob.name,
            "norm": prob.norm_kind, "t_grid": t_grid_spec, "t_prime": threshold,
            "t_prime_clamped": t_prime_second_term_clamped(inputs),
            "k_prime": k_prime(inputs), "rows": len(rows),
            "skipped_at_or_below_t_prime": skipped}
    _emit(out, body, meta)
    sys.exit(EXIT_OK)


@main.command()
@click.option("--problem", "problem_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Problem file (JSON).")
@click.option("--t-grid", "t_grid_spec", default=None,
              help="Times, a:b:n linear or comma list; default: hybrid grid refined near jumps.")
@click.option("--x-grid", "x_grid_spec", default=None,
              help="Abscissas, a:b:n log-spaced or comma list; default from the certificate.")
@click.option("--quad-tol", default=1e-10, show_default=True, help="Quadrature tolerance.")
@click.option("--out", default=None, type=click.Path(dir_okay=False),
              help="CSV destination (stdout if omitted).")
def verify(problem_path, t_grid_spec, x_grid_spec, quad_tol, out):
    """Sup checks: the ratio condition plus the line/tail/small-x bounds."""
    prob = _load(problem_path)
    cert = prob.certificate
    if t_grid_spec is None:
        t_grid, grid_spec = make_t_grid(prob.bv)
        t_desc = grid_spec.describe()
    else:
        t_grid = _parse_grid(t_grid_spec, "--t-grid", "linear")
        grid_spec, t_desc = None, t_grid_spec
    x_grid = None if x_grid_spec is None else _parse_grid(x_grid_spec, "--x-grid", "log")

    line_c = cert.C / cert.x0  # the per-line constant the ratio condition yields at x0
    reports = []
    try:
        reports.append(check_tauberian(prob.bv, cert, t_grid, x_grid, quad_tol, grid_spec))
        for y in (0.0, 2.0 * cert.x0):
            reports.append(check_line_bound(prob.bv, line_c, cert.x0, y,
                                            t_grid, quad_tol, grid_spec))
        reports.append(check_tail_bound(prob.bv, line_c, cert.x0, 2.0 * cert.x0,
                                        t_grid, quad_tol=quad_tol, grid_spec=grid_spec))
        reports.append(check_small_x_bound(prob.bv, line_c, cert.x0, t_grid=t_grid,
                                           quad_tol=quad_tol, grid_spec=grid_spec))
    except (ValueError, ArithmeticError) as exc:
        _input_error(str(exc))

    rows = [(r.case_id, r.grid_sup, r.bound, r.margin, r.witness_t) for r in reports]
    body = _csv_text(("case_id", "grid_sup", "bound", "margin", "witness_t"), rows)
    failed = [r.case_id for r in reports if not r.passed(_MARGIN_REL_TOL)]
    meta = {"command": "verify", "problem": prob.source, "problem_name": prob.name,
            "norm": prob.norm_kind, "t_grid": t_desc, "x_grid": x_grid_spec or "auto",
            "quad_tol": quad_tol, "line_constant": line_c,
            "notes": {r.case_id: r.note for r in reports if r.note},
            "failed_cases": failed}
    _emit(out, body, meta)
    if failed:
        click.echo(f"bound violation in: {', '.join(failed)}", err=True)
        sys.exit(EXIT_VIOLATION)
    sys.exit(EXIT_OK)


@main.command()
@click.option("--problem", "problem_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Problem file with 'extension' and 'growth' blocks.")
@click.option("--t-grid", "t_grid_spec", default="5:5:1", show_default=True,
              help="Times, one contour evaluation per t.")
@click.option("--radius", default=2.0, show_default=True, help="Contour radius R >= 1.")
@click.option("--density", default=1.0, show_default=True,
              help="Quadrature density multiplier.")
@click.option("--quad-tol", default=1e-12, show_default=True, help="Quadrature tolerance.")
@click.option("--residual-tol", default=1e-6, show_default=True,
              help="Identity residual threshold for exit status.")
@click.option("--agreement-tol", default=1e-6, show_default=True,
              help="Allowed extension-vs-transform gap in the seeded spot check.")
@click.option("--seed", default=0, show_default=True,
              help="Seed for the extension-agreement sample points.")
@click.option("--dump", "dump_path", default=None, type=click.Path(dir_okay=False),
              help="Write per-node plot CSV (needs a single-point t grid).")
@click.option("--out", default=None, type=click.Path(dir_okay=False),
              help="CSV destination (stdout if omitted).")
def contour(problem_path, t_grid_spec, radius, density, quad_tol, residual_tol,
            agreement_tol, seed, dump_path, out):
    """Residue-identity residual and per-term norm bounds on the contour."""
    prob = _load(problem_path)
    try:
        ext = prob.require_extension()
        growth = prob.require_growth()
    except ProblemFormatError as exc:
        _input_error(str(exc))
    ts = _parse_grid(t_grid_spec, "--t-grid", "linear")
    if dump_path is not None and ts.size != 1:
        _input_error("--dump needs a single-point --t-grid (one contour per dump)")

    rows = []
    failures = []
    nodes = []
    remainder_max = 0.0
    for t in ts:
        try:
            rep = cauchy_identity_report(prob.bv, ext, growth, float(t), radius,
                                         density, quad_tol, f0=prob.f0)
            bounds = term_bounds(prob.bv, prob.certificate, growth, float(t), radius,
                                 ext, density, quad_tol)
        except ContourBudgetError as exc:
            _input_error(str(exc))
        except (ValueError, ArithmeticError) as exc:
            _input_error(f"t = {t:g}: {exc}")
        nodes.append([float(t), rep.total_nodes])
        remainder_max = max(remainder_max, rep.remainder_bound)
        rows.append((float(t), radius, rep.residual,
                     bounds[0].measured, bounds[0].bound_displayed,
                     bounds[1].measured, bounds[1].bound_displayed,
                     bounds[2].measured, bounds[2].bound_displayed))
        if not rep.residual <= residual_tol:
            failures.append(f"residual {rep.residual:.3g} at t = {t:g}")
        for b in bounds:
            if b.margin_displayed < -_MARGIN_REL_TOL * abs(b.bound_displayed):
                failures.append(f"term {b.name} exceeds its bound at t = {t:g}")

    rng = np.random.default_rng(seed)
    try:
        gap = extension_agreement(prob.bv, ext, prob.certificate, rng,
                                  n_points=12, target_err=1e-9, quad_tol=quad_tol)
    except (TruncationCapError, ValueError, ArithmeticError) as exc:
        _input_error(f"extension spot check: {exc}")
    if not gap <= agreement_tol:
        failures.append(f"extension disagrees with the transform by {gap:.3g}")

    body = _csv_text(("t", "R", "residual", "I_measured", "I_bound", "II_measured",
                      "II_bound", "III_measured", "III_bound"), rows)
    meta = {"command": "contour", "problem": prob.source, "problem_name": prob.name,
            "norm": prob.norm_kind, "t_grid": t_grid_spec, "radius": radius,
            "density": density, "quad_tol": quad_tol, "residual_tol": residual_tol,
            "seed": seed, "extension_agreement_gap": gap, "failures": failures,
            "total_nodes": nodes, "jump_sum_remainder_max": remainder_max}
    _emit(out, body, meta)
    if dump_path is not None:
        dump_rows = contour_dump(prob.bv, ext, growth, float(ts[0]), radius,
                                 density, quad_tol)
        Path(dump_path).write_text(_csv_text(
            ("piece", "s_param", "re z", "im z", "|integrand|"),
            [(p, float(s), float(re), float(im), float(v))
             for p, s, re, im, v in dump_rows]))
    if failures:
        click.echo("; ".join(failures), err=True)
        sys.exit(EXIT_VIOLATION)
    sys.exit(EXIT_OK)


@main.command()
@click.option("--problem", "problem_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Problem file with 'dirichlet' and 'growth' blocks.")
@click.option("--t-grid", "t_grid_spec", default="1:13:25", show_default=True,
              help="Times, a:b:n linear or comma list; must stay below log(n_max).")
@click.option("--out", default=None, type=click.Path(dir_okay=False),
              help="CSV destination (stdout if omitted).")
def dirichlet(problem_path, t_grid_spec, out):
    """Partial-sum decay against the generic bound for a Dirichlet problem."""
    prob = _load(problem_path)
    if prob.dirichlet is None:
        _input_error(f"{prob.source}: the dirichlet command needs a 'dirichlet' block")
    try:
        growth = prob.require_growth()
    except ProblemFormatError as exc:
        _input_error(str(exc))
    grid = _parse_grid(t_grid_spec, "--t-grid", "linear")
    try:
        decay_rows = partial_sum_decay(prob.dirichlet, growth, grid, f0=prob.f0)
    except (ValueError, GrowthDomainError, ArithmeticError) as exc:
        _input_error(str(exc))
    body = _csv_text(("t", "decay_norm", "bound_B", "margin"),
                     [(r.t, r.decay_norm, r.bound_B, r.margin) for r in decay_rows])
    negative = [r.t for r in decay_rows
                if math.isfinite(r.margin) and r.margin < -_MARGIN_REL_TOL * abs(r.bound_B)]
    meta = {"command": "dirichlet", "problem": prob.source, "problem_name": prob.name,
            "norm": prob.norm_kind, "t_grid": t_grid_spec,
            "coefficients": prob.dirichlet.coefficients.describe(),
            "n_max": prob.dirichlet.n_max,
            "f0_provenance": prob.dirichlet.f0_provenance,
            "rows": len(decay_rows), "negative_margin_at": negative}
    _emit(out, body, meta)
    if negative:
        click.echo(f"bound violated at t = {', '.join(f'{t:g}' for t in negative)}", err=True)
        sys.exit(EXIT_VIOLATION)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
