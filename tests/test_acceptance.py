"""Acceptance gate: one check per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see every line; tolerances are
stated inline and are not loosened anywhere else in the suite.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from tauberian_lab import verify
from tauberian_lab.bv import stieltjes_integral, weighted_partial_grid, weighted_tail_grid
from tauberian_lab.cli import main as cli_main
from tauberian_lab.contour import (EtaShiftExtension, cauchy_identity_report, eta,
                                   evaluate_contour, term_bounds)
from tauberian_lab.dirichlet import build_instance, partial_sum_decay
from tauberian_lab.growth import CutoffRule, GrowthBound, m_log, m_log_inverse
from tauberian_lab.problems import load_problem
from tauberian_lab.rates import decay_rate, r_opt, t_prime
from tauberian_lab.transform import TauberianCertificate
from tauberian_lab.vectors import vector_norm
from tauberian_lab.verify import check_certificate, make_t_grid

from exact import (GROWTH_PRESETS, alternating_partial_sum, derived_term_bounds, exp_density,
                   exp_partial, jump_integrator, named_rule)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: {detail}",
          flush=True)
    assert ok, f"criterion {num:02d} ({label}): {detail}"


def test_01_quadrature_matches_closed_forms(rng):
    """50 randomized (z, t) cases across three families, 1e-10 relative."""
    worst = 0.0

    for _ in range(17):  # one jump: the integral is the integrand at the jump
        tau = rng.uniform(0.2, 4.0)
        size = (1.0 + rng.uniform(0.0, 1.0)) * np.exp(2j * np.pi * rng.uniform())
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0))
        bv = jump_integrator([(tau, size)])
        got = stieltjes_integral(bv, z, tau + rng.uniform(0.1, 2.0),
                                 quad_tol=1e-12)[0]
        want = np.exp(z * tau) * size
        worst = max(worst, abs(got - want) / abs(want))

    bv = exp_density()[0]
    for _ in range(17):  # exponential density e^{-s} against the antiderivative
        z = complex(rng.uniform(-2.0, 0.4), rng.uniform(-3.0, 3.0))
        t = rng.uniform(0.5, 5.0)
        got = stieltjes_integral(bv, z, t, quad_tol=1e-12)[0]
        want = exp_partial(-1.0, -z, t)
        worst = max(worst, abs(got - want) / abs(want))

    for _ in range(16):  # finite coefficient block: sum of b_n n^{z-1}
        n = np.arange(1, 31)
        b = rng.uniform(0.5, 1.5, n.size)
        bv = jump_integrator(list(zip(np.log(n), b / n)))
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0))
        t = rng.uniform(1.0, 3.4)
        got = stieltjes_integral(bv, z, t, quad_tol=1e-12)[0]
        keep = n[np.log(n) < t]
        want = np.sum(b[: keep.size] * keep.astype(float) ** (z - 1.0))
        worst = max(worst, abs(got - want) / abs(want))

    _report(1, "quadrature vs closed forms", worst <= 1e-10,
            f"worst relative error {worst:.3e} over 50 cases (tol 1e-10)")


def test_02_delayed_step_reproduction():
    """Ratio closed form, grid sup at 1, the large-x excess, and the restart."""
    T0 = 1.0
    bv = jump_integrator([(T0, 1.0)])
    worst = 0.0
    for x in (0.5, 1.0, 4.0):
        ts = np.asarray([0.2, 0.9, 1.1, 2.0, 5.0])
        got = np.abs(weighted_partial_grid(bv, [x], ts, 1e-12)[0])[:, 0]
        want = np.where(ts > T0, np.exp(x * (T0 - ts)), 0.0)
        worst = max(worst, float(np.max(np.abs(got - want))))
    closed_ok = worst <= 1e-12

    t_grid, _ = make_t_grid(bv)
    sups = {}
    for x in (0.5, 1.0, 4.0):
        norms = np.abs(weighted_partial_grid(bv, [x], t_grid)[0])[:, 0]
        sups[x] = float(norms.max())
    sup_ok = all(abs(s - 1.0) <= 1e-3 for s in sups.values())
    excess_ok = sups[4.0] > 1.0 / 4.0

    restart_ok = True
    for x in (0.5, 1.0, 4.0):
        tp = T0 + math.log(x) / x + 1.0  # a unit past the crossing of e^{x(T0-t)} and 1/x
        probe = tp + np.geomspace(1e-9, 5.0, 200)
        tail_sup = float(np.abs(weighted_partial_grid(bv, [x], probe)[0])[:, 0].max())
        restart_ok = restart_ok and tail_sup < 1.0 / x

    ok = closed_ok and sup_ok and excess_ok and restart_ok
    _report(2, "delayed step", ok,
            f"closed-form err {worst:.2e} (tol 1e-12), grid sups "
            f"{[round(s, 6) for s in sups.values()]} (each 1 +- 1e-3), "
            f"x=4 sup {sups[4.0]:.3f} > 0.25, restart sups < 1/x: {restart_ok}")


def test_03_line_tail_smallx_bounds():
    """Line, tail, and small-x margins >= -1e-9*bound over three families."""
    alt, _ = build_instance(named_rule("alternating"), n_max=10**5)
    families = [
        ("step", jump_integrator([(1.0, 1.0)]), lambda x: 1.0, 1.0),
        ("exp_density", exp_density()[0], lambda x: 1.0, 1.0),
        ("alternating", alt, lambda x: math.e / x, math.e),
    ]
    worst = math.inf
    checked = 0
    for name, bv, c_of_x, c_small in families:
        t_grid, _ = make_t_grid(bv)

        def sup(vals):
            return float(np.max(vector_norm(vals, bv.norm_kind)))

        for x in (0.1, 0.5, 1.0):
            c = c_of_x(x)
            # check_certificate reads the lines y = 0 and y = 2 x, the tail at
            # y = 2 x (reports 1 to 3) and, at x = 1, where C = c_small, the
            # small-x bound (report 4)
            reports = check_certificate(bv, TauberianCertificate(C=c * x, x0=x), t_grid)
            for rep in reports[1:] if x == 1.0 else reports[1:4]:
                assert not rep.hypothesis_failed, (name, rep.case_id, rep.note)
                worst = min(worst, rep.margin / rep.bound)
                checked += 1
            # the other lines and tails, straight from every row of the sweeps
            for y in [y for y in (0.0, 2.0, 10.0) if y != 2.0 * x]:
                v_max = verify.tail_truncation_point(c, x, y, float(t_grid[-1]))
                sweeps = [(weighted_tail_grid(bv, [complex(x, y)], t_grid, v_max)[0], 3.0)]
                if y:  # the line y = 0 is report 1
                    sweeps.append((weighted_partial_grid(bv, [complex(x, y)], t_grid)[0], 1.0))
                for vals, base in sweeps:
                    bound = c * (base + abs(y) / x)
                    worst = min(worst, (bound - sup(vals)) / bound)
                    checked += 1
        assert c_of_x(1.0) == c_small
    _report(3, "line/tail/small-x bounds", worst >= -1e-9,
            f"worst margin/bound {worst:.3e} over {checked} checks (floor -1e-9)")


def test_04_tauberian_condition_for_dirichlet():
    """Scaled sup stays below e for the alternating series down to x = 0.05."""
    bv, cert = build_instance(named_rule("alternating"), n_max=10**6)
    cert = dataclasses.replace(cert, x0=0.05)
    x_grid = np.geomspace(0.05, 400.0, 64)
    rep = check_certificate(bv, cert, x_grid=x_grid)[0]
    ok = rep.margin >= 0.0 and abs(cert.C - math.e) <= 1e-15
    _report(4, "Dirichlet scaled condition", ok,
            f"grid sup {rep.value:.6f} <= C = e = {cert.C:.6f} "
            f"(margin {rep.margin:.3e}, x in [0.05, 400])")


def test_05_radius_inversion(rng):
    """Round trips at 1e-10 relative plus the constant-growth closed form."""
    worst = 0.0
    for M in GROWTH_PRESETS:
        a0 = m_log_inverse(M, 1.0, [max(m_log(M, 1.0, 1.0), 0.0)])[0]  # the branch start
        y_lo = max(float(m_log(M, 1.0, a0)), 0.0) + 0.01
        y_hi = min(2500.0, 0.9 * float(m_log(M, 1.0, 1e250)))
        for _ in range(50):
            y = float(rng.uniform(y_lo, y_hi))
            back = float(m_log(M, 1.0, m_log_inverse(M, 1.0, [y])[0]))
            worst = max(worst, abs(back - y) / max(1.0, abs(y)))
    trips_ok = worst <= 1e-10

    want = math.sqrt(5.0) / 2.0 * math.e
    got = float(r_opt(TauberianCertificate(C=1.0, x0=1.0), GrowthBound("constant", 2.0), [8.0])[0])
    closed_err = abs(got - want) / want
    _report(5, "radius inversion", trips_ok and closed_err <= 1e-6,
            f"worst round-trip residual {worst:.3e} over 250 points (tol 1e-10); "
            f"R_opt(8) = {got!r} vs (sqrt5/2)e (rel err {closed_err:.2e}, tol 1e-6)")


def test_06_contour_identity():
    """Residuals for the rational and series instances, plus density scaling."""
    def residual(*args, **kwargs):
        return cauchy_identity_report(evaluate_contour(*args, **kwargs), None, 1e-6).value

    bv, ext = exp_density()
    M2 = GrowthBound("constant", 2.0)
    worst = 0.0
    for t in (2.0, 5.0, 10.0):
        for R in (1.0, 2.0, 5.0):
            worst = max(worst, residual(bv, ext, M2, t, R))
    rational_ok = worst <= 1e-6

    alt, _ = build_instance(named_rule("alternating"), n_max=10**6)
    eta_res = residual(alt, EtaShiftExtension(), GrowthBound("affine", 1.25), 3.0, 1.5)
    eta_ok = eta_res <= 1e-5

    coarse = residual(bv, ext, M2, 10.0, 5.0, density=0.1)
    fine = residual(bv, ext, M2, 10.0, 5.0, density=0.2)
    doubling_ok = coarse > 1e-12 and coarse >= 4.0 * fine

    ok = rational_ok and eta_ok and doubling_ok
    _report(6, "contour identity", ok,
            f"rational worst residual {worst:.3e} (tol 1e-6), series residual "
            f"{eta_res:.3e} (tol 1e-5), density doubling {coarse:.2e} -> {fine:.2e} "
            f"({coarse / fine:.1f}x, need >= 4x)")


def test_07_contour_term_bounds():
    """Measured term norms against displayed and derived constants."""
    bv, ext = exp_density()
    M2 = GrowthBound("constant", 2.0)
    cert = TauberianCertificate(C=1.0, x0=1.0)
    worst = math.inf
    cases = [(bv, cert, M2, ext, t, R) for t, R in ((10.0, 2.0), (5.0, 1.0), (10.0, 1.0))]
    alt, _ = build_instance(named_rule("alternating"), n_max=10**6)
    cases.append((alt, TauberianCertificate(C=math.e, x0=1.0),
                  GrowthBound("affine", 1.25), EtaShiftExtension(), 3.0, 1.5))
    for fbv, fcert, fM, fext, t, R in cases:
        checks = term_bounds(evaluate_contour(fbv, fext, fM, t, R), fcert)
        for b, derived in zip(checks, derived_term_bounds(fcert.C, float(fM(R)), t, R)):
            worst = min(worst, b.margin / b.bound, (derived - b.value) / derived)

    one, two, three = term_bounds(evaluate_contour(bv, ext, M2, 10.0, 1.0), cert)
    formulas_ok = (
        one.bound == 6.0 * cert.C / 1.0
        and two.bound == 4.0 * cert.C / 1.0
        and abs(three.bound - (2.0 / 10.0 + 2.0 * 1.0 * 4.0 * math.exp(-10.0 / 4.0)))
        <= 1e-12 * three.bound)

    _report(7, "contour term bounds", worst >= -1e-9 and formulas_ok,
            f"worst margin/bound {worst:.3e} (floor -1e-9) across 4 instances; "
            f"displayed constants match 6C/R, 4C/R and the third-term formula")


def test_08_end_to_end_exponential_decay():
    """Measured decay under the guaranteed bound, with the e^{-t/8} shape."""
    cert = TauberianCertificate(C=1.0, x0=1.0, T=0.0, R_rule=CutoffRule("infinite"))
    M = GrowthBound("constant", 2.0)
    tp = t_prime(cert, M)
    ts = np.linspace(tp + 0.5, 50.0, 100)
    bv = exp_density()[0]

    bounds = []
    decay_ok = True
    form_err = 0.0
    for t in ts:
        measured = abs(bv.value_at(float(t))[0] - 1.0)
        if t <= 16.0:
            # past t ~ 16 the subtraction 1 - e^{-t} loses all relative
            # accuracy in doubles; the inequality check below still stands
            form_err = max(form_err, abs(measured - math.exp(-t)) / math.exp(-t))
        res = decay_rate(cert, M, [t])[0]
        bounds.append(res.bound)
        decay_ok = decay_ok and measured <= res.bound
    slope = float(np.polyfit(ts, np.log(bounds), 1)[0])
    shape_ok = slope <= -1.0 / 8.0 + 1e-6

    ok = decay_ok and shape_ok and form_err <= 1e-8
    _report(8, "end-to-end exponential decay", ok,
            f"measured decay under the bound at all 100 points (T' = {tp}), "
            f"bound fit slope {slope:.6f} <= -1/8 + 1e-6, decay matches e^-t "
            f"to {form_err:.2e} where representable")


def test_09_end_to_end_alternating_series():
    """Partial sums approach log 2 no slower than the guaranteed bound."""
    prob = load_problem(PROBLEMS / "dirichlet_alternating.json")  # n_max 10^6, affine c = 1.25
    growth = prob.growth
    tp = t_prime(prob.certificate, growth)
    ts = np.linspace(tp + 0.2, 13.0, 64)
    rows = partial_sum_decay(prob.bv, prob.f0, prob.certificate, growth, ts, prob.dirichlet.t_max)
    worst = min(margin for *_, margin in rows)
    margins_ok = worst >= 0.0 and all(math.isfinite(margin) for *_, margin in rows)

    limit = eta(1.0).real
    direct = alternating_partial_sum(1.0, 10**7)
    oracle_gap = abs(limit - direct)
    oracle_ok = oracle_gap <= 1e-7 and abs(limit - prob.f0[0]) <= 1e-14

    _report(9, "end-to-end alternating series", margins_ok and oracle_ok,
            f"worst margin {worst:.3e} >= 0 on {len(rows)} points of (T', 13] "
            f"(T' = {tp}), limit oracle vs 1e7-term sum gap {oracle_gap:.2e} "
            f"(tol 1e-7)")


def test_10_cli_determinism(tmp_path):
    """Identical configuration and seed give byte-identical CSV bodies."""
    runner = CliRunner()
    jobs = [
        ("rate", ["rate", "--problem", str(PROBLEMS / "rate_constant_growth.json"),
                  "--t-grid", "2,4,8,16"]),
        ("contour", ["contour", "--problem", str(PROBLEMS / "exp_density.json"),
                     "--t-grid", "5:5:1", "--seed", "3"]),
    ]
    ok = True
    details = []
    for name, args in jobs:
        bodies = []
        for run_id in ("a", "b"):
            out = tmp_path / f"{name}_{run_id}.csv"
            res = runner.invoke(cli_main, args + ["--out", str(out)])
            assert res.exit_code == 0, res.output
            bodies.append(out.read_bytes())
        same = bodies[0] == bodies[1]
        ok = ok and same
        details.append(f"{name}: {'identical' if same else 'DIFFER'} "
                       f"({len(bodies[0])} bytes)")
    _report(10, "CLI determinism", ok, "; ".join(details))
