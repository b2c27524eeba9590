"""Command-line front end: problem files in, CSV tables out.

Exit codes: 0 success, 1 when any check fails Check.passed (a bound, the
identity residual or the extension spot check beyond its slack), 2 on input
errors.  Every output is accompanied by a metadata block (JSON sidecar next
to --out, or stderr when printing to stdout); CSV bodies themselves are
deterministic.
"""

from __future__ import annotations

import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__
from .bv import jump_sum_remainder
from .contour import (ContourBudgetError, cauchy_identity_report, contour_dump,
                      evaluate_contour, extension_agreement, term_bounds)
from .dirichlet import partial_sum_decay
from .problems import ProblemFormatError, load_problem
from .rates import decay_rate, k_prime, t_prime, t_prime_second_term_clamped
from .verify import Check, check_certificate, make_t_grid

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


def _csv_text(header, rows) -> str:
    # str(float) is repr(float), the shortest round-trip form, stable across runs.
    # No cell can hold a comma, quote or line break (text cells are fixed names),
    # so this is csv.writer's minimal quoting.
    return "".join([",".join(map(str, row)) + "\n" for row in (header, *rows)])


def _finish(command: str, prob, out: str | None, header, rows, meta: dict, failures) -> None:
    """Write the CSV and its sidecar (to --out and <out>.meta.json, else stdout and stderr),
    then name any failures on stderr and exit 1, or exit 0 if there are none."""
    body = _csv_text(header, rows)
    meta = {"command": command, "problem": prob.source, "problem_name": prob.name,
            "norm": prob.bv.norm_kind, **meta, "tool": "tauberian-lab", "version": __version__,
            "generated_at": datetime.now(timezone.utc).isoformat()}
    if out:
        _write(out, "--out", body)
        _write(f"{out}.meta.json", "--out",
               json.dumps(meta, indent=2, sort_keys=True, default=str) + "\n")
    else:
        click.echo(body, nl=False)
        click.echo(json.dumps(meta, indent=2, sort_keys=True, default=str), err=True)
    if failures:
        click.echo("; ".join(failures), err=True)
        sys.exit(EXIT_VIOLATION)
    sys.exit(EXIT_OK)


def _failures(checks, describe) -> list:
    """describe(check) for each check that fails Check.passed, in order; a command exits 1
    exactly when this list is not empty."""
    return [describe(c) for c in checks if not c.passed()]


def _contour_failure(c: Check) -> str:
    """The phrase that names a failed contour check on stderr and in the sidecar."""
    if c.case_id == "residual":
        return f"residual {c.value:.3g} at t = {c.witness_t:g}"
    if c.case_id == "agreement":
        return f"extension disagrees with the transform by {c.value:.3g}"
    return f"term {c.case_id} exceeds its bound at t = {c.witness_t:g}"


def _input_error(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_INPUT)


def _write(path: str, flag: str, text: str) -> None:
    """Write text to path; exit 2 naming the option and the path if that fails."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        _input_error(f"{flag} {path}: {exc.strerror or exc}")


def _tolerance(ctx, param, value: float) -> float:
    """Click callback of a --*-tol option: its value if finite and >= 0, else exit 2."""
    if not (value >= 0 and math.isfinite(value)):
        kind = "quadrature" if param.name == "quad_tol" else param.name.removesuffix("_tol")
        raise click.BadParameter(f"{kind} tolerance must be finite and >= 0, not {value!r}")
    return value


def _contour_setting(ctx, param, value: float) -> float:
    """Click callback of --radius and --density: build_contour's check of the value, so that
    a bad one exits 2 naming the option, not a time."""
    if param.name == "radius" and not (value >= 1.0 and math.isfinite(value)):
        raise click.BadParameter(f"contour radius must be finite and >= 1, not {value!r}")
    if param.name == "density" and not (value > 0 and math.isfinite(value)):
        raise click.BadParameter(f"density multiplier must be positive and finite, not {value!r}")
    return value


def _load(problem_path: str, *blocks: str) -> tuple:
    """The problem and each named block of it; exit 2 if one is missing or the file is bad."""
    try:
        prob = load_problem(problem_path)
    except ProblemFormatError as exc:
        _input_error(str(exc))
    for block in blocks:
        if getattr(prob, block) is None:
            article = "an" if block[0] in "aeiou" else "a"
            _input_error(f"{prob.source}: this command needs {article} '{block}' block "
                         f"in the problem file")
    return (prob, *(getattr(prob, block) for block in blocks))


def _parse_grid(spec: str, flag: str, spacing: str) -> np.ndarray:
    """Either a:b:n (n points, spacing per command) or a comma list of finite values."""
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
                vals = np.asarray([a])
            elif not a < b:
                raise ValueError("grid needs a < b")
            elif spacing == "log" and a <= 0:
                raise ValueError("log-spaced grid needs a > 0")
            else:
                space = np.geomspace if spacing == "log" else np.linspace
                with np.errstate(invalid="ignore", over="ignore"):
                    vals = space(a, b, n)  # an infinite end is refused below
        else:
            vals = np.asarray([float(v) for v in spec.split(",") if v.strip()])
            if vals.size == 0:
                raise ValueError("no grid values given")
            if np.any(np.diff(vals) <= 0):
                raise ValueError("comma-list values must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
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
    prob, growth = _load(problem_path, "growth")
    grid = _parse_grid(t_grid_spec, "--t-grid", "linear")
    cert = prob.certificate
    threshold = t_prime(cert, growth)
    above = grid[grid > threshold]
    try:
        results = decay_rate(cert, growth, above)
    except (ArithmeticError, ValueError) as exc:
        where = f"t = {above[exc.index]:g}: " if hasattr(exc, "index") else ""
        _input_error(f"{where}{exc}")
    rows = [(res.t, res.R_opt, res.R_rule_t, res.branch, res.bound, res.rate_shape)
            for res in results]
    meta = {"t_grid": t_grid_spec, "t_prime": threshold,
            "t_prime_clamped": t_prime_second_term_clamped(cert, growth),
            "k_prime": k_prime(cert, growth), "rows": len(rows),
            "skipped_at_or_below_t_prime": grid.size - above.size}
    _finish("rate", prob, out, ("t", "R_opt", "R_rule_t", "branch", "bound_B", "rate_shape"),
            rows, meta, [])


@main.command()
@click.option("--problem", "problem_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Problem file (JSON).")
@click.option("--t-grid", "t_grid_spec", default=None,
              help="Times, a:b:n linear or comma list; default: hybrid grid refined near jumps.")
@click.option("--x-grid", "x_grid_spec", default=None,
              help="Abscissas, a:b:n log-spaced or comma list; default from the certificate.")
@click.option("--quad-tol", default=1e-10, show_default=True, callback=_tolerance,
              help="Quadrature tolerance.")
@click.option("--out", default=None, type=click.Path(dir_okay=False),
              help="CSV destination (stdout if omitted).")
def verify(problem_path, t_grid_spec, x_grid_spec, quad_tol, out):
    """Sup checks: the ratio condition plus the line/tail/small-x bounds."""
    prob, = _load(problem_path)
    cert = prob.certificate
    if t_grid_spec is None:
        t_grid, t_grid_spec = make_t_grid(prob.bv)
    else:
        t_grid = _parse_grid(t_grid_spec, "--t-grid", "linear")
    x_grid = None if x_grid_spec is None else _parse_grid(x_grid_spec, "--x-grid", "log")
    try:
        reports = check_certificate(prob.bv, cert, t_grid, x_grid, quad_tol)
    except (ValueError, ArithmeticError) as exc:
        _input_error(str(exc))

    rows = [(r.case_id, r.value, r.bound, r.margin, r.witness_t) for r in reports]
    failed = _failures(reports, lambda r: r.case_id)
    meta = {"quad_tol": quad_tol, "line_constant": cert.C / cert.x0,
            "t_grid": t_grid_spec, "x_grid": x_grid_spec or "auto",
            "notes": {r.case_id: r.note for r in reports if r.note},
            "failed_cases": failed}
    _finish("verify", prob, out, ("case_id", "grid_sup", "bound", "margin", "witness_t"), rows,
            meta, [f"bound violation in: {', '.join(failed)}"] if failed else [])


@main.command()
@click.option("--problem", "problem_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Problem file with 'extension' and 'growth' blocks.")
@click.option("--t-grid", "t_grid_spec", default="5:5:1", show_default=True,
              help="Times, one contour evaluation per t.")
@click.option("--radius", default=2.0, show_default=True, callback=_contour_setting,
              help="Contour radius R >= 1.")
@click.option("--density", default=1.0, show_default=True, callback=_contour_setting,
              help="Quadrature density multiplier.")
@click.option("--quad-tol", default=1e-12, show_default=True, callback=_tolerance,
              help="Quadrature tolerance.")
@click.option("--residual-tol", default=1e-6, show_default=True, callback=_tolerance,
              help="Identity residual threshold for exit status.")
@click.option("--agreement-tol", default=1e-6, show_default=True, callback=_tolerance,
              help="Allowed extension-vs-transform gap in the seeded spot check.")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0),
              help="Seed for the extension-agreement sample points.")
@click.option("--dump", "dump_path", default=None, type=click.Path(dir_okay=False),
              help="Write per-node plot CSV (needs a single-point t grid).")
@click.option("--out", default=None, type=click.Path(dir_okay=False),
              help="CSV destination (stdout if omitted).")
def contour(problem_path, t_grid_spec, radius, density, quad_tol, residual_tol,
            agreement_tol, seed, dump_path, out):
    """Residue-identity residual and per-term norm bounds on the contour."""
    prob, ext, growth = _load(problem_path, "extension", "growth")
    ts = _parse_grid(t_grid_spec, "--t-grid", "linear")
    if dump_path is not None and ts.size != 1:
        _input_error("--dump needs a single-point --t-grid (one contour per dump)")

    rows, checks, nodes = [], [], []
    for t in ts:
        try:
            ev = evaluate_contour(prob.bv, ext, growth, float(t), radius, density, quad_tol)
            residual = cauchy_identity_report(ev, prob.f0, residual_tol)
            terms = term_bounds(ev, prob.certificate)
        except ContourBudgetError as exc:
            _input_error(str(exc))
        except (ValueError, ArithmeticError) as exc:
            _input_error(f"t = {t:g}: {exc}")
        nodes.append([float(t), ev.spec.total_nodes])
        rows.append((float(t), radius, residual.value,
                     *(v for term in terms for v in (term.value, term.bound))))
        checks += [residual, *terms]

    rng = np.random.default_rng(seed)
    try:
        agreement, point = extension_agreement(prob.bv, ext, prob.certificate, rng,
                                               agreement_tol, quad_tol=quad_tol)
    except (ValueError, ArithmeticError) as exc:
        _input_error(f"extension spot check: {exc}")
    failures = _failures([*checks, agreement], _contour_failure)

    if dump_path is not None:
        _write(dump_path, "--dump", _csv_text(("piece", "s_param", "re z", "im z", "|integrand|"),
                                              contour_dump(ev)))  # the single t's evaluation
    meta = {"t_grid": t_grid_spec, "radius": radius, "density": density, "quad_tol": quad_tol,
            "residual_tol": residual_tol, "seed": seed,
            "extension_agreement_gap": agreement.value,
            "extension_agreement_points": point.z.size,
            "extension_agreement_t_star_max": float(np.max(point.t_star)),
            "extension_agreement_truncation_bound_max": float(np.max(point.truncation_bound)),
            "failures": failures, "total_nodes": nodes,
            "jump_sum_remainder_max": jump_sum_remainder(prob.bv)}
    _finish("contour", prob, out, ("t", "R", "residual", "I_measured", "I_bound", "II_measured",
                                   "II_bound", "III_measured", "III_bound"), rows, meta, failures)


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
    prob, instance, growth = _load(problem_path, "dirichlet", "growth")
    grid = _parse_grid(t_grid_spec, "--t-grid", "linear")
    if prob.f0 is None:
        _input_error(f"coefficient source {instance.coefficients!r} has no known limit value; "
                     "give f0 in the problem file's dirichlet block")
    try:
        rows = partial_sum_decay(prob.bv, prob.f0, prob.certificate, growth, grid,
                                 instance.t_max)
    except (ValueError, ArithmeticError) as exc:
        _input_error(str(exc))
    # rows at or below T' carry a nan bound and no verdict
    negative = _failures([Check("decay_bound", d, bound, t) for t, d, bound, _ in rows
                          if not math.isnan(bound)], lambda c: c.witness_t)
    meta = {"t_grid": t_grid_spec, "coefficients": instance.coefficients,
            "n_max": instance.n_max, "f0_provenance": instance.f0_provenance,
            "rows": len(rows), "negative_margin_at": negative}
    _finish("dirichlet", prob, out, ("t", "decay_norm", "bound_B", "margin"), rows, meta,
            [f"bound violated at t = {', '.join(f'{t:g}' for t in negative)}"] if negative else [])


if __name__ == "__main__":
    main()
