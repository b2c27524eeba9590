"""Grid checks of the ratio condition, line/tail/small-x bounds, and the step example."""

import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import tauberian_lab
from tauberian_lab import bv as bv_module
from tauberian_lab import verify as verify_module
from tauberian_lab.bv import (DENSITY_KINDS, BVFunction, DensityPiece, weighted_partial_grid,
                              weighted_tail_grid)
from tauberian_lab.cli import main
from tauberian_lab.dirichlet import build_instance
from tauberian_lab.growth import CutoffRule
from tauberian_lab.problems import load_problem
from tauberian_lab.transform import TauberianCertificate
from tauberian_lab.vectors import vector_norm
from tauberian_lab.verify import Check, check_certificate, make_t_grid, make_x_grid

from exact import (draw_pieces, draw_sizes, exp_density, full_sweep_certificate, full_sweep_sups,
                   hybrid_grid, jump_integrator)


class TestGrids:
    def test_t_grid_refines_after_jumps(self):
        bv = jump_integrator([(1.0, 1.0)])
        grid, described = make_t_grid(bv)
        assert "1 jumps refined" in described
        just_after = grid[(grid > 1.0) & (grid < 1.01)]
        assert just_after.size >= 10  # geometric cluster right of the jump
        assert grid[0] == 0.0 and grid[-1] == 50.0
        assert np.all(np.diff(grid) > 0)
        assert np.array_equal(grid, hybrid_grid(bv, 50.0))

    def test_t_grid_refines_the_first_128_jumps(self):
        grid, described = make_t_grid(jump_integrator([(0.2 * k, 1.0) for k in range(200)]))
        assert "128 jumps refined" in described
        first = jump_integrator([(0.2 * k, 1.0) for k in range(128)])
        assert np.array_equal(grid, hybrid_grid(first, 50.0))

    def test_x_grid(self):
        g = make_x_grid(0.1, 10.0, 5)
        assert g[0] == pytest.approx(0.1) and g[-1] == pytest.approx(10.0)
        assert np.all(np.diff(np.log(g)) > 0)
        assert make_x_grid(2.0, 2.0).tolist() == [2.0]
        with pytest.raises(ValueError):
            make_x_grid(-1.0, 2.0)


class TestDelayedStep:
    """The unit jump at T = 1: ||G(x, t)|| is 0 for t <= T and e^{x(T-t)} after."""

    def test_ratio_closed_form(self):
        got = np.abs(weighted_partial_grid(jump_integrator([(1.0, 1.0)]), [2.0],
                                           np.asarray([0.5, 1.0, 2.0]), 1e-12)[0, :, 0])
        assert got[0] == got[1] == 0.0
        assert abs(got[2] - math.exp(2.0 * (1.0 - 2.0))) <= 1e-12

    def test_sup_is_one_for_every_x(self):
        # sup over t of the ratio is 1, attained as t decreases to T; every
        # grid point matches the closed form
        step = jump_integrator([(1.0, 1.0)])
        grid = hybrid_grid(step, 6.0)
        for x in (0.5, 1.0, 4.0):
            got = np.abs(weighted_partial_grid(step, [x], grid)[0, :, 0])
            assert np.all(np.abs(got - np.where(grid > 1.0, np.exp(x * (1.0 - grid)), 0.0))
                          <= 1e-12)
            assert got.max() == pytest.approx(1.0, abs=1e-3)

    def test_violation_scales_like_one_over_x(self):
        # at x = 4 the sup (= 1) exceeds 1/x = 0.25: no constant bound C/x
        # with C < 1 can hold through the jump
        step = jump_integrator([(1.0, 1.0)])
        grid = hybrid_grid(step, 6.0)
        assert np.abs(weighted_partial_grid(step, [4.0], grid)).max() > 1.0 / 4.0

    def test_restart_clears_the_violation(self):
        # e^{x(T-t)} crosses 1/x at t = T + log(x)/x; a unit past it, the
        # ratio stays below 1/x again
        x = 4.0
        t0 = 1.0 + math.log(x) / x + 1.0
        ts = np.linspace(t0, t0 + 10.0, 200)
        step = jump_integrator([(1.0, 1.0)])
        assert np.abs(weighted_partial_grid(step, [x], ts)).max() < 1.0 / x


class TestCheckTauberian:
    def test_step_with_cutoff_passes(self):
        bv = jump_integrator([(1.0, 1.0)])
        cert = TauberianCertificate(C=1.0, x0=1.0, R_rule=CutoffRule("constant", 1.0))
        report = check_certificate(bv, cert, quad_tol=1e-12)[0]
        assert report.passed()
        assert report.value == pytest.approx(1.0, abs=1e-3)
        assert report.witness_t == pytest.approx(1.0, abs=2e-3)

    def test_zero_integrator(self):
        bv = BVFunction(1)
        cert = TauberianCertificate(C=1.0, x0=1.0)
        report = check_certificate(bv, cert)[0]
        assert report.value == 0.0
        assert report.passed()

    def test_empty_ratio_check_is_refused(self):
        # T = 100 lies past the default grid's t_max = 50, so no (t, x) pair is
        # checked; the parent reported grid_sup -inf with margin inf, a PASS
        bv = jump_integrator([(1.0, 5.0)])
        cert = TauberianCertificate(C=1.0, x0=1.0, T=100.0)
        with pytest.raises(ValueError, match=r"T = 100.*t in \[0, 50\].*x in \[1, 1000\]"):
            check_certificate(bv, cert)

    @pytest.mark.parametrize("check", [check_certificate])
    @pytest.mark.parametrize("x_grid", [[1.0, math.nan, 10.0], [1.0, math.inf], [-math.inf, 2.0]])
    def test_non_finite_x_grid_is_refused(self, check, x_grid):
        # a nan abscissa was dropped without a word, and an infinite one gave
        # grid_sup nan with a RuntimeWarning
        cert = TauberianCertificate(C=1.0, x0=1.0)
        with pytest.raises(ValueError, match="x grid must hold finite abscissas"):
            check(jump_integrator([(1.0, 1.0)]), cert, x_grid=np.asarray(x_grid))

    def test_exp_density_bounded_by_one(self):
        # x e^{-xt} int_0^t e^{(x-1)s} ds <= x/(x... stays below 1 for x >= 1
        cert = TauberianCertificate(C=1.0, x0=1.0)
        report = check_certificate(exp_density()[0], cert, x_grid=np.geomspace(1.0, 100.0, 16))[0]
        assert report.passed()

    def test_one_verdict_rule(self):
        # Check.passed decides every verdict of verify, contour and dirichlet
        within = verify_module.within
        assert within(0.0, 1.0) and within(-1e-9, 1.0) and within(-1e-9, -1.0)
        assert not within(-2e-9, 1.0) and not within(math.nan, 1.0)
        assert within(math.inf, math.inf) and not within(-math.inf, 1.0)
        rep = Check("c", value=1.0 + 2e-9, bound=1.0, witness_t=0.0)
        assert not rep.passed() and Check("c", 1.0 + 5e-10, 1.0, 0.0).passed()
        # a tolerance takes the same slack, a nan value fails and a tolerance of 0 needs an
        # exact 0
        tol = 1e-6
        assert Check("residual", tol * (1 + 5e-10), tol).passed()
        assert not Check("residual", tol * (1 + 2e-9), tol).passed()
        assert not Check("residual", math.nan, tol).passed()
        assert Check("residual", 0.0, 0.0).passed()
        assert not Check("residual", 5e-324, 0.0).passed()
        assert not Check("c", 0.5, 1.0, hypothesis_failed=True).passed()

    @pytest.mark.parametrize("C, x0, named", [(1e308, 1.0, "tail bound inf"),
                                              (1e307, 1.0, "small-x bound inf"),
                                              (1.0, 1e-308, "tail bound inf")])
    def test_overflowing_bounds_are_refused(self, C, x0, named):
        # C = 1e308 gave the line bound at y = 2 x0 and the tail bound inf, which passed
        # vacuously, after two RuntimeWarnings
        with pytest.raises(ValueError) as raised:
            check_certificate(exp_density()[0], TauberianCertificate(C=C, x0=x0))
        assert str(raised.value) == (f"certificate C = {C:g}, x0 = {x0:g} makes the {named}; "
                                     "every bound must be finite")

    def test_failing_certificate_reports_negative_margin(self):
        bv = jump_integrator([(1.0, 1.0)])
        cert = TauberianCertificate(C=0.5, x0=1.0, R_rule=CutoffRule("constant", 1.0))
        report = check_certificate(bv, cert, quad_tol=1e-12)[0]
        assert not report.passed()
        assert report.margin < 0

    def test_grid_refinement_stability_smooth(self):
        # doubling both grid densities moves the reported sup by under 1%
        bv = exp_density()[0]
        cert = TauberianCertificate(C=1.0, x0=1.0)
        coarse_t, fine_t = hybrid_grid(bv, 30.0), hybrid_grid(bv, 30.0, 1024, 128)
        xs = np.geomspace(1.0, 8.0, 16)
        a = check_certificate(bv, cert, t_grid=coarse_t, x_grid=xs)[0].value
        b = check_certificate(bv, cert, t_grid=fine_t, x_grid=xs)[0].value
        assert abs(a - b) <= 0.01 * max(a, b)

    def test_grid_refinement_stability_jump(self):
        # for jump instances the per-jump geometric cluster carries the sup,
        # so stability holds even at large x
        bv = jump_integrator([(1.0, 1.0)])
        cert = TauberianCertificate(C=1.0, x0=1.0, R_rule=CutoffRule("constant", 50.0))
        coarse_t, fine_t = hybrid_grid(bv, 10.0), hybrid_grid(bv, 10.0, 1024, 128)
        xs = np.geomspace(1.0, 50.0, 8)
        a = check_certificate(bv, cert, t_grid=coarse_t, x_grid=xs, quad_tol=1e-12)[0].value
        b = check_certificate(bv, cert, t_grid=fine_t, x_grid=xs, quad_tol=1e-12)[0].value
        assert abs(a - b) <= 0.01 * max(a, b)


def line_sup(bv, z, t_grid) -> float:
    """sup over t_grid of ||G(z, t)||, from every row of the partial sweep."""
    return float(np.max(vector_norm(weighted_partial_grid(bv, [z], t_grid)[0], bv.norm_kind)))


def tail_sup(bv, C, x, y, t_grid) -> float:
    """The tail bound's sup at x + iy, from every row of the tail sweep."""
    v_max = verify_module.tail_truncation_point(C, x, y, float(t_grid[-1]))
    tail = weighted_tail_grid(bv, [complex(x, y)], t_grid, v_max)[0]
    return float(np.max(vector_norm(tail, bv.norm_kind)))


class TestLineTailSmallX:
    """check_certificate reads the lines y = 0 and y = 2 x0; other lines read the sweeps."""

    def test_line_bound_step(self):
        # unscaled hypothesis sup_t |e^{-xt} int e^{xs} dA| <= 1 holds for the
        # step; the vertical-line value obeys C (1 + |y|/x)
        bv = jump_integrator([(1.0, 1.0)])
        for x0 in (0.5, 1.0):
            reports = check_certificate(bv, TauberianCertificate(C=x0, x0=x0), quad_tol=1e-12)
            for rep, y in zip(reports[1:3], (0.0, 2.0 * x0)):
                assert rep.passed(), rep
                assert rep.bound == pytest.approx(1.0 + abs(y) / x0)
        assert line_sup(bv, 1.0 + 10.0j, make_t_grid(bv)[0]) <= 11.0

    def test_line_bound_flags_broken_hypothesis(self):
        rep = check_certificate(jump_integrator([(1.0, 1.0)]),
                                TauberianCertificate(C=0.5, x0=1.0), quad_tol=1e-12)[2]
        assert rep.case_id == "line_bound_x1_y2"
        assert rep.hypothesis_failed
        assert not rep.passed()
        assert "hypothesis" in rep.note

    def test_tail_bound_step(self):
        bv = jump_integrator([(1.0, 1.0)])
        for x0 in (0.5, 1.0):
            rep = check_certificate(bv, TauberianCertificate(C=x0, x0=x0), quad_tol=1e-12)[3]
            assert rep.passed(), rep
            assert rep.bound == pytest.approx(3.0 + 2.0)
            assert "v_max" in rep.note
        t_grid, _ = make_t_grid(bv)
        for x, y in ((0.5, 0.0), (1.0, 10.0)):
            assert tail_sup(bv, 1.0, x, y, t_grid) <= 3.0 + abs(y) / x, (x, y)

    def test_tail_bound_exp_density(self):
        rep = check_certificate(exp_density()[0], TauberianCertificate(C=1.0, x0=1.0),
                                quad_tol=1e-11)[3]
        assert rep.case_id == "tail_bound_x1_y2"
        assert rep.passed()

    def test_line_bound_at_a_tie_is_not_rounded_up(self):
        # jumps 1/n at log n: at x = 1, y = 0 the value on [log k, log(k + 1)) is
        # k e^{-t}, so each refined point log k + 1e-7 (k <= 128) attains the sup
        # e^{-1e-7}; the row-by-row sweep reported it 3.2e-14 too high
        prob = load_problem("problems/dirichlet_ones.json")
        assert prob.certificate.x0 == 1.0
        rep = check_certificate(prob.bv, prob.certificate)[1]
        assert rep.case_id == "line_bound_x1_y0"
        assert abs(rep.value - math.exp(-1e-7)) <= 2e-15 * math.exp(-1e-7)
        ties = np.log(np.arange(1.0, 129.0)) + 1e-7
        assert np.min(np.abs(ties - rep.witness_t)) <= 1e-12

    def test_small_x_bound(self):
        bv = jump_integrator([(1.0, 1.0)])
        rep = check_certificate(bv, TauberianCertificate(C=1.0, x0=1.0), quad_tol=1e-12)[4]
        assert rep.case_id == "small_x_bound"
        assert rep.passed()
        assert rep.witness_x is not None and rep.witness_x <= 1.0
        # the reported case is the worst x: bound C x0 / x grows as x shrinks
        assert rep.bound >= 1.0


class TestSweepReuse:
    """verify sweeps each abscissa once, and all of them in one call per batch."""

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
        # the line y = 0 and the ratio hypothesis read the one sweep of x0
        reports = check_certificate(jump_integrator([(1.0, 1.0)]),
                                    TauberianCertificate(C=2.0, x0=2.0))
        assert [z for _, z in sweeps].count(2.0) == 1
        assert reports[1].case_id == "line_bound_x2_y0"
        assert not reports[1].hypothesis_failed

    def test_small_x_bound_reuses_the_hypothesis_at_x0(self, sweeps):
        # the ratio abscissa, x0 and the small-x grid's last point are one abscissa:
        # of the 16 small-x points, those with 2/x - 1 > 1 (variation 1, c = 1) are
        # settled unswept, so x = 1.08, 1.47, 2 and x0 + 2i x0 take 4 partial sweeps
        cert = TauberianCertificate(C=2.0, x0=2.0)
        rep = check_certificate(jump_integrator([(1.0, 1.0)]), cert, x_grid=np.asarray([2.0]))[4]
        assert make_x_grid(2e-2, 2.0, 16)[-1] == 2.0
        partial = [z for name, z in sweeps if name == "weighted_partial_grid"]
        assert len(partial) == len(set(partial)) == 4
        assert rep.witness_x == 2.0

    def test_verify_command_sweep_count(self, sweeps):
        # ratio condition 8 (from x0 = 1), x0 + 2i x0, small x 6 of 16 (to x0; the
        # variation bound settles the other 10): 14 distinct abscissas, where five
        # sweeps of their own swept 28
        res = CliRunner().invoke(main, ["verify", "--problem", "problems/dirichlet_ones.json",
                                        "--x-grid", "1:1000:8"])
        assert res.exit_code == 0, res.output
        partial = [z for name, z in sweeps if name == "weighted_partial_grid"]
        assert len(partial) == len(set(partial)) == 14
        assert [z for name, z in sweeps if name == "weighted_tail_grid"] == [1.0 + 2.0j]

    def test_verify_command_makes_one_partial_and_one_tail_sweep_call(self, spy):
        # the 14 abscissas fit one batch; the tail bound's own tail sweep is
        # the other call
        res = CliRunner().invoke(main, ["verify", "--problem", "problems/dirichlet_ones.json",
                                        "--x-grid", "1:1000:8"])
        assert res.exit_code == 0, res.output
        _, calls = spy
        assert calls == ["weighted_partial_grid", "weighted_tail_grid"]

    def test_scans_see_only_the_rows_where_the_norm_can_rise(self, monkeypatch):
        # each abscissa's partial scan holds at most the rows that take a jump,
        # the first point of each ratio mask and row 0: not the 8704 grid rows
        prob = load_problem("problems/dirichlet_ones.json")
        t_grid, _ = make_t_grid(prob.bv)
        x_grid = np.geomspace(1.0, 1000.0, 8)
        masks = verify_module._ratio_masks(prob.certificate, t_grid, x_grid)
        tau = prob.bv.jumps_at(slice(None))[0]
        jump_rows = np.unique(np.searchsorted(t_grid, tau[tau < t_grid[-1]], side="right"))
        heads = sum(int(mask[0]) + int(np.sum(mask[1:] & ~mask[:-1])) for mask in masks.values())
        rows = []
        scan = bv_module._decay_scan

        def counted(acc, xr, points, held):
            # one entry per abscissa; the tail sweep scans with xr = -x
            rows.extend(acc.shape[1] for x in xr if x >= 0)
            return scan(acc, xr, points, held)

        monkeypatch.setattr(bv_module, "_decay_scan", counted)
        res = CliRunner().invoke(main, ["verify", "--problem", "problems/dirichlet_ones.json",
                                        "--x-grid", "1:1000:8"])
        assert res.exit_code == 0, res.output
        assert len(rows) == 14
        assert max(rows) <= jump_rows.size + heads + 1 < t_grid.size // 10

    def test_batches_hold_at_most_the_jump_chunk_share(self, monkeypatch):
        # a batch holds at most _MAX_BLOCK_ELEMENTS // 8 entries of the held rows:
        # with room for 10 abscissas of 2-vector rows per batch, the 15 (8 ratio,
        # x0 + 2i x0 and 7 small x, as the variation is sqrt 2 times larger) take 10, 5
        prob = load_problem("problems/dirichlet_ones.json")
        tau, sizes = prob.bv.jumps_at(slice(None))
        bv = BVFunction(2, tau, np.repeat(sizes, 2, axis=1))
        t_grid, _ = make_t_grid(bv)
        x_grid = np.geomspace(1.0, 1000.0, 8)
        masks = verify_module._ratio_masks(prob.certificate, t_grid, x_grid)
        held = np.unique(np.concatenate(
            [[0], np.searchsorted(t_grid, bv.jump_times[bv.jump_times < t_grid[-1]], "right"),
             *(np.flatnonzero(mask[1:] & ~mask[:-1]) + 1 for mask in masks.values())]))
        sizes = []
        partial = verify_module.weighted_partial_grid

        def sized(bv, z, t_grid, quad_tol, rows):
            sizes.append(np.size(z))
            assert np.array_equal(rows, held)
            return partial(bv, z, t_grid, quad_tol, rows)

        monkeypatch.setattr(verify_module, "weighted_partial_grid", sized)
        monkeypatch.setattr(verify_module, "_MAX_BLOCK_ELEMENTS", 8 * 10 * held.size * 2)
        check_certificate(bv, prob.certificate, x_grid=x_grid)
        assert sizes == [10, 5]

    def test_ratio_condition_sweeps_only_abscissas_it_checks(self, spy):
        # R(t) = 1 leaves x = 2 and x = 4 without a time to check
        cert = TauberianCertificate(C=1.0, x0=1.0, R_rule=CutoffRule("constant", 1.0))
        check_certificate(jump_integrator([(1.0, 1.0)]), cert, x_grid=np.asarray([1.0, 2.0, 4.0]))
        abscissas, calls = spy
        assert 2.0 not in [z for _, z in abscissas] and 4.0 not in [z for _, z in abscissas]
        assert calls == ["weighted_partial_grid", "weighted_tail_grid"]

    def test_density_mix_verify_quad_calls(self, monkeypatch):
        # power and damped_power pieces take quad: one call per piece per sweep
        # call, 2 x 2 in all (one per abscissa and piece made 74, one sweep
        # call per check 12)
        calls = []
        quad = bv_module.quad

        def counted(*args, **kwargs):
            calls.append(1)
            return quad(*args, **kwargs)

        monkeypatch.setattr(bv_module, "quad", counted)
        res = CliRunner().invoke(main, ["verify", "--problem", "problems/density_mix.json",
                                        "--t-grid", "0:40:120", "--x-grid", "1:100:16"])
        assert res.exit_code == 0, res.output
        assert len(calls) <= 4


@st.composite
def held_sweep_cases(draw, densities: bool, table: bool = False):
    """A jump integrator (0 to 300 real, complex or 2-vector jumps, some on grid points), with
    density pieces of every kind if densities, or if table a Dirichlet integrator of a
    periodic (q, d) table, q <= 6 and d <= 2, with 2 to 20000 jumps; an ascending grid on
    [0, 50] with points a few ulps apart (or equal); ratio masks of random runs; real and
    complex abscissas, with |Im z| <= 50 where there are densities, and short power pieces,
    so that quad converges."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.uniform(0.0, 50.0, draw(st.integers(1, 60)))
    if draw(st.booleans()):
        grid[0] = 0.0
    clusters = [grid]
    for anchor in rng.choice(grid, draw(st.integers(0, 4))):
        steps = rng.integers(0, 4, draw(st.integers(1, 4)))  # 0 ulps repeats the point
        clusters.append([anchor + np.spacing(anchor) * k for k in np.cumsum(steps)])
    t_grid = np.sort(np.concatenate(clusters))
    kind = draw(st.sampled_from(("real", "complex", "vector")))
    d = 2 if kind == "vector" else 1
    taus = rng.uniform(0.0, 55.0, draw(st.integers(0, 300)))
    taus = np.unique(np.concatenate((taus, rng.choice(t_grid, draw(st.integers(0, 5))))))
    sizes = rng.standard_normal((taus.size, d)) * 10.0 ** rng.uniform(-3, 3, (taus.size, 1))
    if kind != "real":
        sizes = sizes + 1j * rng.standard_normal((taus.size, d))
    pieces = []
    if table:
        q, d = draw(st.integers(1, 6)), draw(st.integers(1, 2))
        rows = rng.standard_normal((q, d)) + 1j * rng.standard_normal((q, d))
        bv = build_instance(rows, draw(st.integers(2, 20_000)),
                            draw(st.sampled_from(("euclidean", "sup"))))[0]
    if densities:
        for piece_kind in DENSITY_KINDS:
            a = 0.0 if draw(st.booleans()) else float(rng.uniform(0.0, 40.0))
            end = a + (0.5 if piece_kind in ("power", "damped_power") else 8.0)
            if piece_kind == "constant" and draw(st.booleans()):
                end = math.inf
            rate = -float(rng.uniform(0.0, 1.5)) if piece_kind in ("exponential",
                                                                  "damped_power") else 0.0
            pieces.append(DensityPiece(a, end, piece_kind, tuple(rng.standard_normal(d)),
                                       rate, float(rng.uniform(0.0, 2.0))))
    if not table:
        bv = BVFunction(d, taus, sizes, tuple(pieces),
                        draw(st.sampled_from(("euclidean", "sup"))))
    scale = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
    xs = draw(st.lists(scale, min_size=1, max_size=3))
    masks = {}
    for x in xs:
        if draw(st.booleans()):
            masks[complex(x)] = (rng.random(t_grid.size) < rng.random()) | (t_grid > 45.0)
    y_max = 50.0 if densities else 1e3  # past ~100 periods on a piece, quad may run out of leaves
    zs = [*xs, *(complex(draw(scale), draw(st.floats(-y_max, y_max))) for _ in range(2))]
    return bv, zs, t_grid, masks


@pytest.mark.parametrize("densities, table", [(False, False), (True, False), (False, True)],
                         ids=["False", "True", "table"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_held_rows_give_the_full_sweep_sups(data, densities, table):
    # every value and first witness bitwise as the sup over every grid row, also where a
    # table's range sums answer the rows past each abscissa's head
    bv, zs, t_grid, masks = data.draw(held_sweep_cases(densities, table))
    got = verify_module._sweep_sups(bv, zs, t_grid, 1e-10, masks)
    assert got == full_sweep_sups(bv, zs, t_grid, masks)


@pytest.mark.parametrize("densities, table", [(False, False), (True, False), (False, True)],
                         ids=["False", "True", "table"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_held_rows_give_the_full_sweep_rows(data, densities, table):
    # a held list that leaves out rising rows merges their steps into the next held row's, which
    # takes them with its own weights, so each held row is G at its point as the full sweep's
    # row is.  They differ by rounding (the scan's 2 eps 256 relative per term, under 1e-12 of
    # the variation), by the jumps and density cut below e^-60 and e^-70 of their mass, and by
    # quad's quad_tol on each step of a piece without a closed form, on either side
    bv, zs, t_grid, _ = data.draw(held_sweep_cases(densities, table))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    held = np.flatnonzero(rng.random(t_grid.size) < rng.random())
    quad_tol = 1e-10
    got = weighted_partial_grid(bv, zs, t_grid, quad_tol, held)
    full = weighted_partial_grid(bv, zs, t_grid, quad_tol)[:, held]
    quad_pieces = sum(p.kind in ("power", "damped_power") for p in bv.pieces)
    allowed = (1e-12 * bv.variation_bound(t_grid[-1])
               + quad_pieces * quad_tol * (held + 1 + np.arange(1, held.size + 1)))
    assert np.all(vector_norm(got - full, bv.norm_kind) <= allowed)


class TestHeldRows:
    """Edge cases of sweeping only the rows where ||G|| can rise."""

    def test_no_jump_before_the_last_point(self):
        # the only jump lies at the last grid point, past every row's step
        bv = jump_integrator([(5.0, 2.0)])
        t_grid = np.linspace(0.0, 5.0, 11)
        mask = t_grid > 2.2
        sups, ratio = verify_module._sweep_sups(bv, [1.0, 3 + 4j], t_grid, 1e-10,
                                                {1.0 + 0j: mask})
        assert sups == {1.0 + 0j: (0.0, 0), 3 + 4j: (0.0, 0)}
        assert ratio == {1.0 + 0j: (0.0, 5)}
        assert (sups, ratio) == full_sweep_sups(bv, [1.0, 3 + 4j], t_grid, {1.0 + 0j: mask})

    def test_mask_head_inside_an_empty_run(self):
        # the mask starts at t = 3.1, far from the jump at 1: its sup is the
        # decayed value there, on a row that takes no jump
        bv = jump_integrator([(1.0, 1.0 + 1.0j)])
        t_grid = np.linspace(0.0, 10.0, 101)
        masks = {2.0 + 0j: t_grid > 3.05}
        sups, ratio = verify_module._sweep_sups(bv, [2.0], t_grid, 1e-10, masks)
        assert (sups, ratio) == full_sweep_sups(bv, [2.0], t_grid, masks)
        assert t_grid[ratio[2.0 + 0j][1]] == t_grid[31]
        decayed = 2.0 * math.sqrt(2.0) * math.exp(-2.0 * (t_grid[31] - 1.0))
        assert ratio[2.0 + 0j][0] == pytest.approx(decayed, rel=1e-13)

    def test_scan_block_start_inside_an_empty_run(self):
        # at x = 1000 a scan block spans 0.256 in t, so blocks start at 1.024 and
        # 1.28 between the jumps at 1 and 1.3; the second jump is small enough
        # that the term carried through both, e^{-310}, is a third of its row
        bv = jump_integrator([(1.0, 1.0), (1.3, 1e-130)])
        t_grid = np.linspace(0.0, 50.0, 5001)
        held = bv_module._rising_rows(bv, t_grid)
        assert held.tolist() == [0, 101, 131]
        got = weighted_partial_grid(bv, [1000.0], t_grid, held=held)[0]
        full = weighted_partial_grid(bv, [1000.0], t_grid)[0]
        assert np.array_equal(got, full[held])
        both = (math.exp(-1000.0 * (t_grid[131] - 1.0))
                + 1e-130 * math.exp(-1000.0 * (t_grid[131] - 1.3)))
        assert full[131, 0].real == pytest.approx(both, rel=1e-12)
        assert (verify_module._sweep_sups(bv, [1000.0], t_grid, 1e-10)
                == full_sweep_sups(bv, [1000.0], t_grid, {}))


class TestSmallXPruning:
    """check_certificate sweeps only the small-x abscissas that the variation bound cannot
    settle, and reports what the sweep of all 16 reports."""

    @staticmethod
    def swept_small_x(monkeypatch, x0: float) -> list[float]:
        """The small-x abscissas of the partial sweeps, filled in as check_certificate runs."""
        small = set(make_x_grid(x0 * 1e-2, x0, 16).tolist())
        swept = []
        partial = verify_module.weighted_partial_grid

        def spied(bv, z, *args, **kw):
            swept.extend(v.real for v in np.atleast_1d(z) if v.imag == 0 and v.real in small)
            return partial(bv, z, *args, **kw)

        monkeypatch.setattr(verify_module, "weighted_partial_grid", spied)
        return swept

    @pytest.mark.parametrize("C, kept", [(0.5, 13), (5.0, 6)])
    def test_dropped_abscissas_leave_every_report_as_it_was(self, monkeypatch, C, kept):
        # unit jumps at t = 1..20 (variation 20), x0 = 1: x is dropped where
        # C / x - 20 > C.  At C = 0.5 the least small-x margin lies below x0, at
        # x = 0.54, and the hypothesis fails; at C = 5 it holds
        bv = jump_integrator([(float(k), 1.0 - 0.5j) for k in range(1, 21)])
        cert = TauberianCertificate(C=C, x0=1.0)
        x_grid = np.geomspace(1.0, 50.0, 6)
        swept = self.swept_small_x(monkeypatch, 1.0)
        got = check_certificate(bv, cert, x_grid=x_grid)
        assert sorted(swept) == make_x_grid(1e-2, 1.0, 16)[16 - kept:].tolist()
        assert list(map(repr, got)) == list(map(repr, full_sweep_certificate(bv, cert, None,
                                                                              x_grid)))
        assert (got[4].witness_x < 1.0) == (C == 0.5)

    @pytest.mark.parametrize("inside", [True, False])
    def test_bound_inside_the_slack_keeps_its_abscissa(self, monkeypatch, inside):
        # one unit jump, so ||G|| <= V = variation_bound(50); at c = V / (1/x - 1)
        # the bound c / x at x = small[14] exceeds c by V exactly.  Half a slack
        # past that, x is still swept; two slacks past it, it is dropped
        bv = jump_integrator([(0.5, 1.0)])
        small = make_x_grid(1e-2, 1.0, 16)
        var = bv.variation_bound(50.0)
        c0 = var / (1.0 / small[14] - 1.0)
        slack = verify_module._SMALL_X_SLACK * (var + c0 / small[14])
        c = float((var + (0.5 if inside else 2.0) * slack) / (1.0 / small[14] - 1.0))
        assert c / small[14] - var > c  # without the slack, x would be dropped
        cert = TauberianCertificate(C=c, x0=1.0)
        swept = self.swept_small_x(monkeypatch, 1.0)
        got = check_certificate(bv, cert, x_grid=np.asarray([1.0]))
        assert sorted(swept) == small[14 if inside else 15:].tolist()
        want = full_sweep_certificate(bv, cert, None, np.asarray([1.0]))
        assert list(map(repr, got)) == list(map(repr, want))


@st.composite
def certificate_cases(draw):
    """An integrator of jumps, of all four density kinds (with real rates), or of both, in C^1
    or C^2 under either norm; a certificate with T > 0, x0 != 1 and a finite or infinite
    cutoff; a t grid (maybe the default one) and an x grid that holds x0 or misses it."""
    d = draw(st.sampled_from((1, 2)))
    kind = draw(st.sampled_from(("jumps", "densities", "mix")))
    taus = np.zeros(0)
    if kind != "densities":
        taus = np.unique(draw(st.lists(st.floats(0.0, 9.0), min_size=1, max_size=6)))
    sizes = draw_sizes(draw, taus.size, d)
    pieces = () if kind == "jumps" else draw_pieces(draw, d, max_rate=0.5, imag=st.just(0.0))
    bv = BVFunction(d, taus, sizes, pieces, draw(st.sampled_from(("euclidean", "sup"))))
    x0 = draw(st.floats(0.3, 3.0).filter(lambda v: v != 1.0))
    cutoff = draw(st.sampled_from((CutoffRule("infinite"), CutoffRule("exp_t"),
                                   CutoffRule("constant", max(1.0, 4.0 * x0)))))
    # now and then T lies past every grid, and the ratio condition checks nothing
    T = 60.0 if draw(st.integers(0, 7)) == 0 else draw(st.floats(0.01, 2.0))
    cert = TauberianCertificate(C=draw(st.floats(0.05, 4.0)), x0=x0, T=T, R_rule=cutoff)
    t_grid = None
    if draw(st.booleans()):
        t_grid = np.linspace(0.0, draw(st.floats(2.5, 12.0)), draw(st.integers(2, 60)))
    x_grid = None
    if draw(st.booleans()):
        first = x0 * draw(st.sampled_from((1.0, 0.5, 1.3)))  # x0 itself, below it, past it
        x_grid = np.geomspace(first, 60.0 * x0, draw(st.integers(1, 12)))
    return bv, cert, t_grid, x_grid


def _outcome(run):
    try:
        return [repr(rep) for rep in run()]
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("one_per_batch", [False, True])
@settings(max_examples=30, deadline=None)
@given(case=certificate_cases())
def test_certificate_equals_separate_checks(case, one_per_batch):
    # every Check field bitwise, or the same error, as read from every row of
    # the public sweeps; with every abscissa its own batch too, so batch
    # boundaries move no bit
    bv, cert, t_grid, x_grid = case
    want = _outcome(lambda: full_sweep_certificate(bv, cert, t_grid, x_grid))
    with mock.patch.object(verify_module, "_MAX_BLOCK_ELEMENTS",
                           8 if one_per_batch else verify_module._MAX_BLOCK_ELEMENTS):
        got = _outcome(lambda: check_certificate(bv, cert, t_grid, x_grid))
    assert got == want


class TestExtremeSizes:
    """The sups of a jump whose euclidean norm squares would underflow or overflow."""

    def line_reports(self, size, C):
        reports = check_certificate(jump_integrator([(1.0, [size, size])]),
                                    TauberianCertificate(C=C, x0=1.0))
        lines = [r for r in reports if r.case_id.startswith("line_bound")]
        assert len(lines) == 2
        return lines

    def test_tiny_jump_fails_its_line_bounds(self):
        # the sup on a line is sqrt(2) 1e-200 > C, where the squares once read 0 and PASS
        for report in self.line_reports(1e-200, 1e-200):
            assert report.value == pytest.approx(math.sqrt(2.0) * 1e-200, rel=1e-6)
            assert not report.passed()

    def test_huge_jump_passes_its_line_bounds(self):
        # the squares once read inf, a FAIL with a RuntimeWarning
        for report in self.line_reports(1e200, 2e200):
            assert report.value == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-6)
            assert report.passed()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the ratio condition reads a grid sup, not a certified sup")
def test_ratio_condition_fails_where_the_grid_misses_the_sup():
    # x ||G(x, t)|| for A' = e^{-t} is x (e^{-t} - e^{-xt}) / (x - 1), which tends
    # to 1 as x grows: 0.9931 at x = 1000, t = 0.0069, so C = 0.95 fails.  The
    # default grids reach only 0.9192, at x = 64.49, and report a PASS
    reports = check_certificate(exp_density()[0], TauberianCertificate(C=0.95, x0=1))
    assert not reports[0].passed()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 15: a density row's step collapses to 0 once x t >~ 1e18")
def test_ratio_condition_fails_at_a_large_x0():
    # for A' = e^{-t} the exact x ||G|| at the witness row is 0.907 > C = 0.5, and x0 = 1e16
    # reads 0.9068 and FAILs; at x0 = 1e20 the step [t_j - 70/x, t_j] rounds to empty, the
    # density rows read 0 and the check PASSes
    report = check_certificate(exp_density()[0], TauberianCertificate(C=0.5, x0=1e20))[0]
    assert not report.passed()
    assert abs(report.value - 0.907) <= 1e-3


def test_verify_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on first use, 14 ms and about 1 MB at start-up
    script = ("import sys\n"
              "from tauberian_lab.cli import main\n"
              "try:\n"
              "    main(['verify', '--problem', 'problems/delayed_step.json'])\n"
              "except SystemExit as exc:\n"
              "    assert exc.code == 0, exc.code\n"
              "print('numpy.ma' in sys.modules)\n")
    src = str(Path(tauberian_lab.__file__).resolve().parent.parent)
    res = subprocess.run([sys.executable, "-B", "-c", script], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "PATH": ""}, check=True)
    assert res.stdout.splitlines()[-1] == "False"
