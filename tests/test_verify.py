"""Grid checks of the ratio condition, line/tail/small-x bounds, and the step example."""

import math

import numpy as np
import pytest
from click.testing import CliRunner

from tauberian_lab import (
    BVFunction,
    TauberianCertificate,
    check_line_bound,
    check_small_x_bound,
    check_tail_bound,
    check_tauberian,
    delayed_step,
    delayed_step_ratio,
    delayed_step_restart,
    load_problem,
    make_t_grid,
    make_x_grid,
)
from tauberian_lab import bv as bv_module
from tauberian_lab import verify as verify_module
from tauberian_lab.cli import main


def exp_density() -> BVFunction:
    return BVFunction.from_density("exponential", rate=-1.0)


class TestGrids:
    def test_t_grid_refines_after_jumps(self):
        bv = delayed_step(1.0)
        grid, spec = make_t_grid(bv, t_max=10.0)
        assert spec.refined_jumps == 1
        just_after = grid[(grid > 1.0) & (grid < 1.01)]
        assert just_after.size >= 10  # geometric cluster right of the jump
        assert grid[0] == 0.0 and grid[-1] == 10.0
        assert np.all(np.diff(grid) > 0)
        assert "jumps refined" in spec.describe()

    def test_x_grid(self):
        g = make_x_grid(0.1, 10.0, 5)
        assert g[0] == pytest.approx(0.1) and g[-1] == pytest.approx(10.0)
        assert np.all(np.diff(np.log(g)) > 0)
        assert make_x_grid(2.0, 2.0).tolist() == [2.0]
        with pytest.raises(ValueError):
            make_x_grid(-1.0, 2.0)


class TestDelayedStep:
    def test_ratio_closed_form(self):
        # 0 before the jump, e^{x(T-t)} after; the helper cross-checks at 1e-12
        assert delayed_step_ratio(1.0, 2.0, 0.5) == 0.0
        assert delayed_step_ratio(1.0, 2.0, 1.0) == 0.0
        got = delayed_step_ratio(1.0, 2.0, 2.0)
        assert got == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_sup_is_one_for_every_x(self):
        # sup over t of the ratio is 1, attained as t decreases to T
        grid, _ = make_t_grid(delayed_step(1.0), t_max=6.0)
        for x in (0.5, 1.0, 4.0):
            sup = max(delayed_step_ratio(1.0, x, float(t)) for t in grid)
            assert sup == pytest.approx(1.0, abs=1e-3)

    def test_violation_scales_like_one_over_x(self):
        # at x = 4 the sup (= 1) exceeds 1/x = 0.25: no constant bound C/x
        # with C < 1 can hold through the jump
        grid, _ = make_t_grid(delayed_step(1.0), t_max=6.0)
        sup = max(delayed_step_ratio(1.0, 4.0, float(t)) for t in grid)
        assert sup > 1.0 / 4.0

    def test_restart_clears_the_violation(self):
        # beyond the restart time the ratio stays below 1/x again
        x = 4.0
        t0 = delayed_step_restart(1.0, x)
        ts = np.linspace(t0, t0 + 10.0, 200)
        sup = max(delayed_step_ratio(1.0, x, float(t)) for t in ts)
        assert sup < 1.0 / x


class TestCheckTauberian:
    def test_step_with_cutoff_passes(self):
        bv = delayed_step(1.0)
        cert = TauberianCertificate(C=1.0, x0=1.0, R_rule=CutoffRuleConstantOne())
        report = check_tauberian(bv, cert, quad_tol=1e-12)
        assert report.passed()
        assert report.grid_sup == pytest.approx(1.0, abs=1e-3)
        assert report.witness_t == pytest.approx(1.0, abs=2e-3)

    def test_zero_integrator(self):
        bv = BVFunction.zero()
        cert = TauberianCertificate(C=1.0, x0=1.0)
        report = check_tauberian(bv, cert)
        assert report.grid_sup == 0.0
        assert report.passed()

    def test_empty_ratio_check_is_refused(self):
        # T = 100 lies past the default grid's t_max = 50, so no (t, x) pair is
        # checked; the parent reported grid_sup -inf with margin inf, a PASS
        bv = BVFunction.single_jump(1.0, 5.0)
        cert = TauberianCertificate(C=1.0, x0=1.0, T=100.0)
        with pytest.raises(ValueError, match=r"T = 100.*t in \[0, 50\].*x in \[1, 1000\]"):
            check_tauberian(bv, cert)

    def test_exp_density_bounded_by_one(self):
        # x e^{-xt} int_0^t e^{(x-1)s} ds <= x/(x... stays below 1 for x >= 1
        cert = TauberianCertificate(C=1.0, x0=1.0)
        report = check_tauberian(exp_density(), cert,
                                 x_grid=np.geomspace(1.0, 100.0, 16))
        assert report.passed()

    def test_failing_certificate_reports_negative_margin(self):
        bv = delayed_step(1.0)
        cert = TauberianCertificate(C=0.5, x0=1.0, R_rule=CutoffRuleConstantOne())
        report = check_tauberian(bv, cert, quad_tol=1e-12)
        assert not report.passed()
        assert report.margin < 0

    def test_grid_refinement_stability_smooth(self):
        # doubling both grid densities moves the reported sup by under 1%
        bv = exp_density()
        cert = TauberianCertificate(C=1.0, x0=1.0)
        coarse_t, _ = make_t_grid(bv, t_max=30.0)
        fine_t, _ = make_t_grid(bv, t_max=30.0, base_points=1024, jump_points=128)
        xs = np.geomspace(1.0, 8.0, 16)
        a = check_tauberian(bv, cert, t_grid=coarse_t, x_grid=xs).grid_sup
        b = check_tauberian(bv, cert, t_grid=fine_t, x_grid=xs).grid_sup
        assert abs(a - b) <= 0.01 * max(a, b)

    def test_grid_refinement_stability_jump(self):
        # for jump instances the per-jump geometric cluster carries the sup,
        # so stability holds even at large x
        bv = delayed_step(1.0)
        from tauberian_lab import CutoffRule

        cert = TauberianCertificate(C=1.0, x0=1.0, R_rule=CutoffRule.constant(50.0))
        coarse_t, _ = make_t_grid(bv, t_max=10.0)
        fine_t, _ = make_t_grid(bv, t_max=10.0, base_points=1024, jump_points=128)
        xs = np.geomspace(1.0, 50.0, 8)
        a = check_tauberian(bv, cert, t_grid=coarse_t, x_grid=xs, quad_tol=1e-12).grid_sup
        b = check_tauberian(bv, cert, t_grid=fine_t, x_grid=xs, quad_tol=1e-12).grid_sup
        assert abs(a - b) <= 0.01 * max(a, b)


class CutoffRuleConstantOne:
    """Inline stand-in so the tests read the dependency explicitly."""

    def __new__(cls):
        from tauberian_lab import CutoffRule

        return CutoffRule.constant(1.0)


class TestLineTailSmallX:
    def test_line_bound_step(self):
        # unscaled hypothesis sup_t |e^{-xt} int e^{xs} dA| <= 1 holds for the
        # step; the vertical-line value obeys C (1 + |y|/x)
        bv = delayed_step(1.0)
        for x, y in ((0.5, 0.0), (1.0, 2.0), (1.0, 10.0)):
            rep = check_line_bound(bv, 1.0, x, y, quad_tol=1e-12)
            assert rep.passed(), (x, y)
            assert rep.bound == pytest.approx(1.0 + abs(y) / x)

    def test_line_bound_flags_broken_hypothesis(self):
        rep = check_line_bound(delayed_step(1.0), 0.5, 1.0, 2.0, quad_tol=1e-12)
        assert rep.hypothesis_failed
        assert not rep.passed()
        assert "hypothesis" in rep.note

    def test_tail_bound_step(self):
        bv = delayed_step(1.0)
        for x, y in ((0.5, 0.0), (1.0, 2.0), (1.0, 10.0)):
            rep = check_tail_bound(bv, 1.0, x, y, quad_tol=1e-12)
            assert rep.passed(), (x, y)
            assert rep.bound == pytest.approx(3.0 + abs(y) / x)
            assert "v_max" in rep.note

    def test_tail_bound_exp_density(self):
        rep = check_tail_bound(exp_density(), 1.0, 1.0, 2.0, quad_tol=1e-11)
        assert rep.passed()

    def test_line_bound_at_a_tie_is_not_rounded_up(self):
        # jumps 1/n at log n: at x = 1, y = 0 the value on [log k, log(k + 1)) is
        # k e^{-t}, so each refined point log k + 1e-7 (k <= 128) attains the sup
        # e^{-1e-7}; the row-by-row sweep reported it 3.2e-14 too high
        prob = load_problem("problems/dirichlet_ones.json")
        rep = check_line_bound(prob.bv, prob.certificate.C, 1.0, 0.0)
        assert abs(rep.grid_sup - math.exp(-1e-7)) <= 2e-15 * math.exp(-1e-7)
        ties = np.log(np.arange(1.0, 129.0)) + 1e-7
        assert np.min(np.abs(ties - rep.witness_t)) <= 1e-12

    def test_small_x_bound(self):
        bv = delayed_step(1.0)
        rep = check_small_x_bound(bv, 1.0, x0=1.0, quad_tol=1e-12)
        assert rep.passed()
        assert rep.witness_x is not None and rep.witness_x <= 1.0
        # the reported case is the worst x: bound C x0 / x grows as x shrinks
        assert rep.bound >= 1.0

    def test_small_x_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            check_small_x_bound(delayed_step(1.0), 1.0, 1.0,
                                x_grid=np.asarray([2.0]))


class TestSweepReuse:
    """A check sweeps each abscissa once, and all of its abscissas in one call."""

    @pytest.fixture
    def spy(self, monkeypatch) -> tuple[list[tuple[str, complex]], list[str]]:
        """Every abscissa swept, with its sweep's name, and the name of every sweep call."""
        abscissas, calls = [], []
        for name in ("weighted_partial_grid", "weighted_tail_grid"):
            def counted(bv, z, *args, _name=name, _sweep=getattr(verify_module, name), **kw):
                calls.append(_name)
                abscissas.extend((_name, complex(v)) for v in np.atleast_1d(z))
                return _sweep(bv, z, *args, **kw)

            monkeypatch.setattr(verify_module, name, counted)
        return abscissas, calls

    @pytest.fixture
    def sweeps(self, spy) -> list[tuple[str, complex]]:
        return spy[0]

    def test_line_bound_on_the_real_axis_is_its_own_hypothesis(self, sweeps):
        rep = check_line_bound(delayed_step(1.0), 1.0, 2.0, 0.0)
        assert sweeps == [("weighted_partial_grid", 2.0)]
        assert not rep.hypothesis_failed

    def test_small_x_bound_reuses_the_hypothesis_at_x0(self, sweeps):
        rep = check_small_x_bound(delayed_step(1.0), 1.0, x0=2.0)
        assert make_x_grid(2e-2, 2.0, 16)[-1] == 2.0
        assert len(sweeps) == 16 and len(set(sweeps)) == 16
        assert rep.witness_x == 2.0

    def test_verify_command_sweep_count(self, sweeps):
        # ratio condition 8, line bounds 1 + 2, tail bound 1 + 1 tail, small x 16
        res = CliRunner().invoke(main, ["verify", "--problem", "problems/dirichlet_ones.json",
                                        "--x-grid", "1:1000:8"])
        assert res.exit_code == 0, res.output
        names = [name for name, _ in sweeps]
        assert names.count("weighted_partial_grid") == 28
        assert names.count("weighted_tail_grid") == 1

    def test_verify_command_makes_one_sweep_call_per_check(self, spy):
        # ratio condition, two line bounds, the tail bound's hypothesis and the
        # small-x bound: one partial call each; the tail bound's own tail sweep
        res = CliRunner().invoke(main, ["verify", "--problem", "problems/dirichlet_ones.json",
                                        "--x-grid", "1:1000:8"])
        assert res.exit_code == 0, res.output
        _, calls = spy
        assert calls.count("weighted_partial_grid") == 5
        assert calls.count("weighted_tail_grid") == 1

    def test_ratio_condition_sweeps_only_abscissas_it_checks(self, spy):
        # R(t) = 1 leaves x = 2 and x = 4 without a time to check
        cert = TauberianCertificate(C=1.0, x0=1.0, R_rule=CutoffRuleConstantOne())
        check_tauberian(delayed_step(1.0), cert, x_grid=np.asarray([1.0, 2.0, 4.0]))
        assert spy == ([("weighted_partial_grid", 1.0)], ["weighted_partial_grid"])

    def test_density_mix_verify_quad_calls(self, monkeypatch):
        # power and damped_power pieces take quad: one call per piece per sweep
        # call, 2 x 6 in all (one per abscissa and piece made 74)
        calls = []
        quad = bv_module.quad

        def counted(*args, **kwargs):
            calls.append(1)
            return quad(*args, **kwargs)

        monkeypatch.setattr(bv_module, "quad", counted)
        res = CliRunner().invoke(main, ["verify", "--problem", "problems/density_mix.json",
                                        "--t-grid", "0:40:120", "--x-grid", "1:100:16"])
        assert res.exit_code == 0, res.output
        assert len(calls) <= 12
