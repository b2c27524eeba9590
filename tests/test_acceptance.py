"""Acceptance gate: one check per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see every line; tolerances are
stated inline and are not loosened anywhere else in the suite.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from tauberian_lab import (BVFunction, CoefficientSequence, CutoffRule,
                           EtaShiftExtension, GrowthBound, Integrand,
                           RateInputs, RationalExtension, TauberianCertificate,
                           branch_start, build_instance, cauchy_residual,
                           check_line_bound, check_small_x_bound,
                           check_tail_bound, check_tauberian, decay_rate,
                           delayed_step, delayed_step_ratio,
                           delayed_step_restart, evaluate_contour, m_log,
                           m_log_inverse,
                           make_t_grid, partial_sum_decay, r_opt,
                           stieltjes_integral, t_prime, term_bounds,
                           weighted_partial_grid)
from tauberian_lab import oracles
from tauberian_lab.cli import main as cli_main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

GROWTH_PRESETS = [
    GrowthBound.constant(2.0),
    GrowthBound.affine(1.2),
    GrowthBound.power(1.0, 0.8),
    GrowthBound.log_power(1.5, 2.0),
    GrowthBound.exponential(1.0, 0.1),
]


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
        bv = BVFunction.single_jump(tau, size)
        got = stieltjes_integral(bv, Integrand(rate=z), tau + rng.uniform(0.1, 2.0),
                                 quad_tol=1e-12)[0]
        want = np.exp(z * tau) * size
        worst = max(worst, abs(got - want) / abs(want))

    bv = BVFunction.from_density("exponential", scale=1.0, rate=-1.0)
    for _ in range(17):  # exponential density e^{-s} against the antiderivative
        z = complex(rng.uniform(-2.0, 0.4), rng.uniform(-3.0, 3.0))
        t = rng.uniform(0.5, 5.0)
        got = stieltjes_integral(bv, Integrand(rate=z), t, quad_tol=1e-12)[0]
        want = (np.exp((z - 1.0) * t) - 1.0) / (z - 1.0)
        worst = max(worst, abs(got - want) / abs(want))

    for _ in range(16):  # finite coefficient block: sum of b_n n^{z-1}
        n = np.arange(1, 31)
        b = rng.uniform(0.5, 1.5, n.size)
        bv = BVFunction.from_jumps(list(zip(np.log(n), b / n)))
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0))
        t = rng.uniform(1.0, 3.4)
        got = stieltjes_integral(bv, Integrand(rate=z), t, quad_tol=1e-12)[0]
        keep = n[np.log(n) < t]
        want = np.sum(b[: keep.size] * keep.astype(float) ** (z - 1.0))
        worst = max(worst, abs(got - want) / abs(want))

    _report(1, "quadrature vs closed forms", worst <= 1e-10,
            f"worst relative error {worst:.3e} over 50 cases (tol 1e-10)")


def test_02_delayed_step_reproduction():
    """Ratio closed form, grid sup at 1, the large-x excess, and the restart."""
    T0 = 1.0
    worst = 0.0
    for x in (0.5, 1.0, 4.0):
        for t in (0.2, 0.9, 1.1, 2.0, 5.0):
            want = math.exp(x * (T0 - t)) if t > T0 else 0.0
            worst = max(worst, abs(delayed_step_ratio(T0, x, t) - want))
    closed_ok = worst <= 1e-12

    bv = delayed_step(T0)
    t_grid, _ = make_t_grid(bv)
    sups = {}
    for x in (0.5, 1.0, 4.0):
        norms = np.abs(weighted_partial_grid(bv, x, t_grid))[:, 0]
        sups[x] = float(norms.max())
    sup_ok = all(abs(s - 1.0) <= 1e-3 for s in sups.values())
    excess_ok = sups[4.0] > 1.0 / 4.0

    restart_ok = True
    for x in (0.5, 1.0, 4.0):
        tp = delayed_step_restart(T0, x)
        probe = tp + np.geomspace(1e-9, 5.0, 200)
        tail_sup = float(np.abs(weighted_partial_grid(bv, x, probe))[:, 0].max())
        restart_ok = restart_ok and tail_sup < 1.0 / x

    ok = closed_ok and sup_ok and excess_ok and restart_ok
    _report(2, "delayed step", ok,
            f"closed-form err {worst:.2e} (tol 1e-12), grid sups "
            f"{[round(s, 6) for s in sups.values()]} (each 1 +- 1e-3), "
            f"x=4 sup {sups[4.0]:.3f} > 0.25, restart sups < 1/x: {restart_ok}")


def test_03_line_tail_smallx_bounds():
    """Line, tail, and small-x margins >= -1e-9*bound over three families."""
    alt = build_instance(CoefficientSequence.alternating(), n_max=10**5)
    families = [
        ("step", delayed_step(1.0), lambda x: 1.0, 1.0),
        ("exp_density",
         BVFunction.from_density("exponential", scale=1.0, rate=-1.0),
         lambda x: 1.0, 1.0),
        ("alternating", alt.bv, lambda x: math.e / x, math.e),
    ]
    worst = math.inf
    checked = 0
    for name, bv, c_of_x, c_small in families:
        t_grid, spec = make_t_grid(bv)
        for x in (0.1, 0.5, 1.0):
            for y in (0.0, 2.0, 10.0):
                for rep in (check_line_bound(bv, c_of_x(x), x, y, t_grid, grid_spec=spec),
                            check_tail_bound(bv, c_of_x(x), x, y, t_grid, grid_spec=spec)):
                    assert not rep.hypothesis_failed, (name, rep.case_id, rep.note)
                    worst = min(worst, rep.margin / rep.bound)
                    checked += 1
        rep = check_small_x_bound(bv, c_small, 1.0, t_grid=t_grid, grid_spec=spec)
        assert not rep.hypothesis_failed, (name, rep.note)
        worst = min(worst, rep.margin / rep.bound)
        checked += 1
    _report(3, "line/tail/small-x bounds", worst >= -1e-9,
            f"worst margin/bound {worst:.3e} over {checked} checks (floor -1e-9)")


def test_04_tauberian_condition_for_dirichlet():
    """Scaled sup stays below e for the alternating series down to x = 0.05."""
    inst = build_instance(CoefficientSequence.alternating(), n_max=10**6)
    cert = dataclasses.replace(inst.certificate, x0=0.05)
    x_grid = np.geomspace(0.05, 400.0, 64)
    rep = check_tauberian(inst.bv, cert, x_grid=x_grid)
    ok = rep.margin >= 0.0 and abs(cert.C - math.e) <= 1e-15
    _report(4, "Dirichlet scaled condition", ok,
            f"grid sup {rep.grid_sup:.6f} <= C = e = {cert.C:.6f} "
            f"(margin {rep.margin:.3e}, x in [0.05, 400])")


def test_05_radius_inversion(rng):
    """Round trips at 1e-10 relative plus the constant-growth closed form."""
    worst = 0.0
    for M in GROWTH_PRESETS:
        a0 = branch_start(M, 1.0)
        y_lo = max(float(m_log(M, 1.0, a0)), 0.0) + 0.01
        y_hi = min(2500.0, 0.9 * float(m_log(M, 1.0, 1e250)))
        for _ in range(50):
            y = float(rng.uniform(y_lo, y_hi))
            back = float(m_log(M, 1.0, m_log_inverse(M, 1.0, y)))
            worst = max(worst, abs(back - y) / max(1.0, abs(y)))
    trips_ok = worst <= 1e-10

    want = math.sqrt(5.0) / 2.0 * math.e
    got = r_opt(RateInputs(C=1.0, M=GrowthBound.constant(2.0)), 8.0)
    closed_err = abs(got - want) / want
    _report(5, "radius inversion", trips_ok and closed_err <= 1e-6,
            f"worst round-trip residual {worst:.3e} over 250 points (tol 1e-10); "
            f"R_opt(8) = {got!r} vs (sqrt5/2)e (rel err {closed_err:.2e}, tol 1e-6)")


def test_06_contour_identity():
    """Residuals for the rational and series instances, plus density scaling."""
    bv = BVFunction.from_density("exponential", scale=1.0, rate=-1.0)
    ext = RationalExtension((1.0,), (1.0, 1.0))
    M2 = GrowthBound.constant(2.0)
    worst = 0.0
    for t in (2.0, 5.0, 10.0):
        for R in (1.0, 2.0, 5.0):
            worst = max(worst, cauchy_residual(bv, ext, M2, t, R))
    rational_ok = worst <= 1e-6

    inst = build_instance(CoefficientSequence.alternating(), n_max=10**6)
    eta_res = cauchy_residual(inst.bv, EtaShiftExtension(), GrowthBound.affine(1.25),
                              3.0, 1.5)
    eta_ok = eta_res <= 1e-5

    coarse = cauchy_residual(bv, ext, M2, 10.0, 5.0, density=0.1)
    fine = cauchy_residual(bv, ext, M2, 10.0, 5.0, density=0.2)
    doubling_ok = coarse > 1e-12 and coarse >= 4.0 * fine

    ok = rational_ok and eta_ok and doubling_ok
    _report(6, "contour identity", ok,
            f"rational worst residual {worst:.3e} (tol 1e-6), series residual "
            f"{eta_res:.3e} (tol 1e-5), density doubling {coarse:.2e} -> {fine:.2e} "
            f"({coarse / fine:.1f}x, need >= 4x)")


def test_07_contour_term_bounds():
    """Measured term norms against displayed and derived constants."""
    bv = BVFunction.from_density("exponential", scale=1.0, rate=-1.0)
    ext = RationalExtension((1.0,), (1.0, 1.0))
    M2 = GrowthBound.constant(2.0)
    cert = TauberianCertificate(C=1.0, x0=1.0)
    worst = math.inf
    cases = [(bv, cert, M2, ext, t, R) for t, R in ((10.0, 2.0), (5.0, 1.0), (10.0, 1.0))]
    inst = build_instance(CoefficientSequence.alternating(), n_max=10**6)
    cases.append((inst.bv, TauberianCertificate(C=math.e, x0=1.0),
                  GrowthBound.affine(1.25), EtaShiftExtension(), 3.0, 1.5))
    for fbv, fcert, fM, fext, t, R in cases:
        for b in term_bounds(evaluate_contour(fbv, fext, fM, t, R), fcert):
            worst = min(worst, b.margin_displayed / b.bound_displayed,
                        b.margin_derived / b.bound_derived)

    one, two, three = term_bounds(evaluate_contour(bv, ext, M2, 10.0, 1.0), cert)
    formulas_ok = (
        one.bound_displayed == 6.0 * cert.C / 1.0
        and two.bound_displayed == 4.0 * cert.C / 1.0
        and abs(three.bound_displayed
                - (2.0 / 10.0 + 2.0 * 1.0 * 4.0 * math.exp(-10.0 / 4.0)))
        <= 1e-12 * three.bound_displayed)

    _report(7, "contour term bounds", worst >= -1e-9 and formulas_ok,
            f"worst margin/bound {worst:.3e} (floor -1e-9) across 4 instances; "
            f"displayed constants match 6C/R, 4C/R and the third-term formula")


def test_08_end_to_end_exponential_decay():
    """Measured decay under the guaranteed bound, with the e^{-t/8} shape."""
    inputs = RateInputs(C=1.0, M=GrowthBound.constant(2.0), T=0.0,
                        R_rule=CutoffRule.infinite())
    tp = t_prime(inputs)
    ts = np.linspace(tp + 0.5, 50.0, 100)
    bv = BVFunction.from_density("exponential", scale=1.0, rate=-1.0)

    bounds = []
    decay_ok = True
    form_err = 0.0
    for t in ts:
        measured = abs(bv.value_at(float(t))[0] - 1.0)
        if t <= 16.0:
            # past t ~ 16 the subtraction 1 - e^{-t} loses all relative
            # accuracy in doubles; the inequality check below still stands
            form_err = max(form_err, abs(measured - math.exp(-t)) / math.exp(-t))
        res = decay_rate(inputs, float(t))
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
    inst = build_instance(CoefficientSequence.alternating(), n_max=10**6)
    growth = GrowthBound.affine(1.25)
    inputs = RateInputs(C=inst.certificate.C, M=growth,
                        R_rule=inst.certificate.R_rule)
    tp = t_prime(inputs)
    ts = np.linspace(tp + 0.2, 13.0, 64)
    rows = partial_sum_decay(inst, growth, ts, f0=inst.f0)
    worst = min(r.margin for r in rows)
    margins_ok = worst >= 0.0 and all(math.isfinite(r.margin) for r in rows)

    limit = oracles.log_two()
    direct = oracles.alternating_partial_sum(1.0, 10**7)
    oracle_gap = abs(limit - direct)
    oracle_ok = oracle_gap <= 1e-7 and abs(limit - inst.f0[0]) <= 1e-14

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
