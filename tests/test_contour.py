"""Contour machinery: geometry, the residue identity, and per-term bounds."""

import csv
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from tauberian_lab import bv as bv_module
from tauberian_lab import contour as contour_module
from tauberian_lab.bv import (BVFunction, exp_partial_integral, exp_tail_integral,
                              jump_sum_remainder)
from tauberian_lab.cli import main
from tauberian_lab.contour import (ContourBudgetError, EtaShiftExtension, RationalExtension,
                                   _eval_extension, build_contour, cauchy_identity_report,
                                   contour_dump, eta, evaluate_contour, extension_agreement,
                                   fudge_factor, term_bounds)
from tauberian_lab.dirichlet import build_instance
from tauberian_lab.growth import GrowthBound
from tauberian_lab.problems import load_problem
from tauberian_lab.rates import bound_B
from tauberian_lab.transform import TauberianCertificate
from tauberian_lab.vectors import vector_norm

from exact import (alternating_series, derived_term_bounds, exp_density, jump_integrator,
                   loop_agreement, mixed_integrator, named_rule, plain_jumps, stieltjes_integral,
                   total_variation)

M2 = GrowthBound("constant", 2.0)
RESIDUAL_TOL = 1e-6  # the CLI's default --residual-tol


def residual(ev, f0=None) -> float:
    return cauchy_identity_report(ev, f0, RESIDUAL_TOL).value


def abs_error(ev, f0) -> float:
    """The identity's absolute gap: the relative residual times its denominator, the norm of
    A(t) - f(0) (at least 1e-30), with the evaluation's own A(t)."""
    reference = ev.A_t - np.asarray(f0, dtype=complex)
    return residual(ev, f0) * max(1e-30, float(vector_norm(reference, ev.bv.norm_kind)))


class TestFudgeFactor:
    def test_zeros_on_the_imaginary_crossings(self):
        R = 3.0
        assert abs(fudge_factor(1j * R, R)) == 0.0
        assert abs(fudge_factor(-1j * R, R)) == 0.0

    def test_value_on_the_real_axis(self):
        assert fudge_factor(2.0, 2.0) == pytest.approx(4.0)
        assert fudge_factor(0.0, 5.0) == pytest.approx(1.0)

    def test_elementwise_helpers_keep_their_argument_shape(self):
        for z in (2.0, np.full((2, 3), 2.0)):
            for value in (fudge_factor(z, 2.0), RationalExtension((1.0,), (1.0, 1.0))(z)):
                assert isinstance(value, np.ndarray) and value.shape == np.shape(z)

    def test_modulus_identity_on_the_circle(self, rng):
        # |1 + z^2/R^2|^2 = (2 |Re z| / R)^2 for |z| = R
        R = 2.5
        th = rng.uniform(-math.pi, math.pi, 100)
        z = R * np.exp(1j * th)
        got = np.abs(fudge_factor(z, R))
        want = (2.0 * np.abs(z.real) / R) ** 2
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestGeometry:
    def test_pieces_and_junctions(self):
        spec = build_contour(M2, 2.0, 5.0)
        assert spec.R == 2.0
        assert spec.left_abscissa == pytest.approx(-0.25)
        # right arc spans Re z >= 0, reflected arc Re z <= 0
        assert np.all(spec.gamma1.nodes.real >= -1e-12)
        assert np.all(spec.gamma1_reflected.nodes.real <= 1e-12)
        names = [p.name for p in spec.gamma2]
        assert names[0] == "gamma2_top" and names[-1] == "gamma2_bottom"
        assert sum("vertical" in n for n in names) >= 2
        # all left-path nodes stay strictly right of the growth strip edge
        for p in spec.gamma2:
            if "vertical" in p.name:
                np.testing.assert_allclose(p.nodes.real, spec.left_abscissa, atol=1e-14)

    def test_node_count_scales_with_density(self):
        lo = build_contour(M2, 2.0, 5.0, density=1.0).total_nodes
        hi = build_contour(M2, 2.0, 5.0, density=2.0).total_nodes
        assert 1.7 <= hi / lo <= 2.3

    def test_budget_error(self):
        with pytest.raises(ContourBudgetError) as info:
            build_contour(M2, 50.0, 2000.0)
        assert info.value.required_nodes > info.value.max_nodes
        assert "density" in str(info.value)

    @pytest.mark.parametrize("M, R, t", [(GrowthBound("affine", 1.25), 2.0, 5.0), (M2, 1.0, 0.5),
                                         (M2, 7.5, 12.0)], ids=["affine", "unit_R", "wide"])
    def test_budget_error_reports_the_exact_node_count(self, M, R, t, monkeypatch):
        nodes = build_contour(M, R, t).total_nodes
        monkeypatch.setattr(contour_module, "_MAX_NODES", nodes - 1)
        with pytest.raises(ContourBudgetError, match=f"needs {nodes} nodes") as info:
            build_contour(M, R, t)
        assert info.value.required_nodes == nodes
        monkeypatch.setattr(contour_module, "_MAX_NODES", nodes)
        assert build_contour(M, R, t).total_nodes == nodes

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            build_contour(M2, 0.5, 5.0)
        with pytest.raises(ValueError):
            build_contour(M2, 2.0, 0.0)
        with pytest.raises(ValueError):
            build_contour(M2, 2.0, 5.0, density=-1.0)


class TestCauchyIdentity:
    def test_rational_family_machine_precision(self):
        bv, ext = exp_density()
        for t in (2.0, 5.0, 10.0):
            for R in (1.0, 2.0, 5.0):
                res = residual(evaluate_contour(bv, ext, M2, t, R))
                assert res <= 1e-6, (t, R)
                assert res <= 1e-9, (t, R)  # in practice it is machine-level

    def test_report_fields(self):
        bv, ext = exp_density()
        ev = evaluate_contour(bv, ext, M2, 5.0, 2.0)
        check = cauchy_identity_report(ev, None, RESIDUAL_TOL)
        assert (check.case_id, check.bound, check.witness_t) == ("residual", RESIDUAL_TOL, 5.0)
        assert check.passed()
        # reference A(t) - f(0) = (1 - e^{-t}) - 1 = -e^{-t}, f(0) = 1 from the extension
        f0 = ext(np.asarray([0j]))
        assert (ev.A_t - f0)[0] == pytest.approx(-math.exp(-5.0), rel=1e-12)
        assert abs_error(ev, f0) <= 1e-12
        assert ev.spec.total_nodes > 0
        assert jump_sum_remainder(bv) == 0.0  # no jumps, nothing truncated

    def test_zero_instance_numerator(self):
        # A = 0 with extension 0: both sides vanish; the guarded residual
        # denominator must not blow the numerator up
        bv = BVFunction(1)
        ext = RationalExtension((0.0,), (1.0,))
        assert abs_error(evaluate_contour(bv, ext, M2, 4.0, 2.0), [0.0]) <= 1e-12

    def test_explicit_f0_override(self):
        bv, ext = exp_density()
        ev = evaluate_contour(bv, ext, M2, 5.0, 2.0)
        assert residual(ev) == residual(ev, ext(np.asarray([0j])))  # f(0) = 1, the default
        assert abs_error(ev, [1.0]) < 1e-12
        assert abs_error(ev, [0.5]) == pytest.approx(0.5, abs=1e-6)

    def test_junction_continuity(self):
        # the fudge factor kills the integrand at z = +-iR, where the arc
        # meets the left path
        bv, ext = exp_density()
        t, R = 5.0, 2.0
        rows = contour_dump(evaluate_contour(bv, ext, M2, t, R))
        g1 = [r for r in rows if r[0] == "gamma1"]
        peak = max(r[4] for r in g1)
        # literal integrand value at the junctions
        for zj in (1j * R, -1j * R):
            tail = exp_tail_integral(bv, np.asarray([zj]), t)[0, 0]
            val = abs(tail * fudge_factor(zj, R) / zj)
            assert val <= 1e-8 * peak
        # and the sampled magnitudes decay toward the junctions
        near = max(r[4] for r in g1 if abs(abs(r[1]) - math.pi / 2) < 0.05)
        mid = max(r[4] for r in g1 if abs(r[1]) < 0.5)
        assert near < 1e-2 * mid

    def test_doubling_density_cuts_error(self):
        # (t, R) chosen where the left-path quadrature error is the floor
        bv, ext = exp_density()
        t, R = 10.0, 5.0
        coarse = residual(evaluate_contour(bv, ext, M2, t, R, 0.1))
        fine = residual(evaluate_contour(bv, ext, M2, t, R, 0.2))
        assert coarse > 1e-12  # meaningfully above the machine floor
        assert coarse >= 4.0 * fine

    def test_eta_extension_identity(self):
        # alternating Dirichlet jumps against the eta(z+1) extension
        bv, ext = alternating_series(1_000_000)
        M = GrowthBound("affine", 1.25)
        res = residual(evaluate_contour(bv, ext, M, 3.0, 1.5))
        assert res <= 1e-5

    def test_report_carries_jump_sum_remainder(self, tmp_path):
        # the alternating table repeats within its 2000 jumps, so the contour sums take the
        # range plan, and the sidecar reports what the plan leaves out: 2^-60 of the jump
        # mass for the range sums and e^-60 of it for the cut weights.  The same jumps
        # without the table take block-Taylor, whose bound is another share of the mass
        plain, _ = alternating_series(2000)
        mass = float(np.sum(vector_norm(plain.jump_sizes, "euclidean")))
        assert jump_sum_remainder(plain) == pytest.approx(bv_module._TAYLOR_REMAINDER * mass,
                                                          rel=1e-12)
        problem, out = tmp_path / "alt.json", tmp_path / "contour.csv"
        problem.write_text(json.dumps({
            "dirichlet": {"coefficients": "alternating", "n_max": 2000},
            "growth": {"kind": "affine", "params": {"c": 1.25}},
            "extension": {"kind": "eta_shift", "params": {"terms": 96}}}))
        CliRunner().invoke(main, ["contour", "--problem", str(problem), "--t-grid", "3:3:1",
                                  "--radius", "1.5", "--out", str(out)])
        remainder = json.loads(Path(f"{out}.meta.json").read_text())["jump_sum_remainder_max"]
        share = bv_module._RANGE_SUM_TOL + math.exp(-bv_module._NEGLIGIBLE_LOG)
        assert remainder == pytest.approx(share * mass, rel=1e-12)


def test_dirichlet_alternating_sidecar_bounds_the_range_plan(tmp_path):
    # the gallery's Dirichlet contour sums its table by the range plan, and its sidecar reports
    # that engine's remainder.  The tail on gamma1 agrees with block-Taylor on the same jumps
    # within the two engines' bounds plus rounding
    problem = load_problem("problems/dirichlet_alternating.json")
    out = tmp_path / "contour.csv"
    res = CliRunner().invoke(main, ["contour", "--problem", "problems/dirichlet_alternating.json",
                                    "--out", str(out)])
    assert res.exit_code == 0, res.output
    meta = json.loads(Path(f"{out}.meta.json").read_text())
    bv, plain = problem.bv, plain_jumps(problem.bv)
    mass = float(np.sum(vector_norm(plain.jump_sizes, "euclidean")))
    share = bv_module._RANGE_SUM_TOL + math.exp(-bv_module._NEGLIGIBLE_LOG)
    assert meta["jump_sum_remainder_max"] == jump_sum_remainder(bv)
    assert jump_sum_remainder(bv) == pytest.approx(share * mass, rel=1e-12)
    [(t, _)] = meta["total_nodes"]
    z = build_contour(problem.growth, meta["radius"], t).gamma1.nodes
    gap = np.max(np.abs(exp_tail_integral(bv, z, t) - exp_tail_integral(plain, z, t)))
    assert gap <= (jump_sum_remainder(bv) + jump_sum_remainder(plain)
                   + 64.0 * np.finfo(float).eps * mass)


class TestJumpMass:
    """jump_sum_remainder's jump mass is variation_bound's sum: the range plan at c = 0 for a
    table, np.sum of the norms for jump arrays."""

    @staticmethod
    def tables():
        rng = np.random.default_rng(42)
        period3 = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        return [build_instance(named_rule("alternating"), 10**6)[0],
                build_instance(period3, 10**6)[0]]

    def test_a_table_gathers_only_its_head(self, monkeypatch):
        # at c = 0 the plan gathers a head of q _HEAD_PERIODS jumps and the partial period at
        # the end, not every jump of the table.  The mass is summed over a table of the row
        # norms, so the gathers are counted on the class
        jumps_at = BVFunction.jumps_at
        for bv in self.tables():
            gathers = []
            monkeypatch.setattr(BVFunction, "jumps_at",
                                lambda bv, idx: gathers.append(jumps_at(bv, idx)) or gathers[-1])
            jump_sum_remainder(bv)
            monkeypatch.undo()
            q = bv.table.shape[0]
            assert len(gathers) <= 2
            assert sum(times.size for times, _ in gathers) <= q * (bv_module._HEAD_PERIODS + 1)

    def test_a_table_takes_the_exact_mass(self):
        share = bv_module._RANGE_SUM_TOL + math.exp(-bv_module._NEGLIGIBLE_LOG)
        for bv in self.tables():
            mass = math.fsum(vector_norm(bv.jumps_at(slice(None))[1], "euclidean"))
            assert jump_sum_remainder(bv) == pytest.approx(share * mass, rel=1e-15, abs=0.0)

    def test_jump_arrays_keep_np_sum(self):
        rng = np.random.default_rng(7)
        tau = np.cumsum(rng.uniform(0.01, 0.1, 20_000))
        sizes = rng.normal(size=(20_000, 2)) + 1j * rng.normal(size=(20_000, 2))
        want = bv_module._TAYLOR_REMAINDER * np.sum(vector_norm(sizes, "euclidean"))
        assert jump_sum_remainder(BVFunction(2, tau, sizes)) == want


class TestReferenceValue:
    """The identity's reference A(t) is the reflected arc's partial integral at z = 0."""

    def test_dirichlet_alternating_value_is_the_fsum_of_its_jumps(self):
        # the range plan sums the 10^6-jump table's full periods by Euler-Maclaurin; a dense
        # dot over every jump before t was 3.0e-15, 1.6e-14 and 9.2e-14 off at these t
        prob = load_problem("problems/dirichlet_alternating.json")
        for t in (7.3, 13.0, 13.8):
            ev = evaluate_contour(prob.bv, prob.extension, prob.growth, t, 2.0)
            sizes = prob.bv.jumps_at(slice(0, int(prob.bv.jumps_before(t))))[1][:, 0]
            exact = complex(math.fsum(sizes.real), math.fsum(sizes.imag))
            assert abs(ev.A_t[0] - exact) <= 1e-15, t

    @pytest.mark.parametrize("kind", ["table", "jumps", "mixed"])
    @pytest.mark.parametrize("t, R", [(3.0, 1.0), (9.5, 3.0)])
    def test_the_z0_node_moves_no_bit_of_the_arc(self, kind, t, R):
        # a repeating table takes the range plan, its jumps as arrays take block-Taylor, and
        # the mixed 2-vector integrator adds every density kind, power ones through quad
        table = build_instance(named_rule("alternating"), 20_000)[0]
        bv, ext = {"table": (table, EtaShiftExtension()),
                   "jumps": (plain_jumps(table), EtaShiftExtension()),
                   "mixed": (mixed_integrator(), lambda z: np.ones((np.size(z), 2)))}[kind]
        ev = evaluate_contour(bv, ext, M2, t, R)
        alone = exp_partial_integral(bv, ev.spec.gamma1_reflected.nodes, t, ev.quad_tol)
        assert np.array_equal(ev.terms[1][0].F, alone)
        want = stieltjes_integral(bv, 0.0, t, 1e-12)
        assert vector_norm(ev.A_t - want, bv.norm_kind) <= 1e-12 * max(1.0, total_variation(bv, t))

    def test_value_is_left_continuous(self):
        # a jump at t counts in A(t + 1e-9) and not in A(t)
        bv, ext = jump_integrator([(2.0, 1.0)]), RationalExtension((1.0,), (1.0,))
        assert evaluate_contour(bv, ext, M2, 2.0, 2.0).A_t.tolist() == [0.0]
        assert evaluate_contour(bv, ext, M2, 2.0 + 1e-9, 2.0).A_t.tolist() == [1.0]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 6: the contour reads the series truncated at n_max")
def test_dirichlet_alternating_contour_holds_at_late_times(tmp_path):
    # the extension is eta(z + 1), the infinite series, but the integrator stops at n_max = 1e6
    # (log n_max = 13.8): the residual reads 2.84e-6 at t = 8 and 0.106 at t = 13, so the
    # command exits 1
    out = tmp_path / "contour.csv"
    res = CliRunner().invoke(main, ["contour", "--problem", "problems/dirichlet_alternating.json",
                                    "--t-grid", "8,13", "--radius", "2", "--out", str(out)])
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [float(row["t"]) for row in rows] == [8.0, 13.0]
    assert res.exit_code == 0
    assert all(float(row["residual"]) <= 1e-6 for row in rows)


class TestTermBounds:
    def cert(self) -> TauberianCertificate:
        return TauberianCertificate(C=1.0, x0=1.0)

    def test_margins_nonnegative(self):
        bv, ext = exp_density()
        for t, R in ((5.0, 1.0), (10.0, 2.0)):
            checks = term_bounds(evaluate_contour(bv, ext, M2, t, R), self.cert())
            for tb, derived in zip(checks, derived_term_bounds(1.0, M2(R), t, R)):
                assert tb.margin >= -1e-9 * tb.bound, (t, R, tb.case_id)
                assert derived - tb.value >= -1e-9 * derived, (t, R, tb.case_id)
                assert tb.passed() and tb.witness_t == t

    def test_displayed_constants(self):
        bv, ext = exp_density()
        I, II, III = term_bounds(evaluate_contour(bv, ext, M2, 10.0, 2.0), self.cert())
        assert [b.case_id for b in (I, II, III)] == ["I", "II", "III"]
        assert I.bound == pytest.approx(6.0 / 2.0)
        assert II.bound == pytest.approx(4.0 / 2.0)
        # the derivation's sharper constants sit strictly inside the display
        derived_I, derived_II, _ = derived_term_bounds(1.0, M2(2.0), 10.0, 2.0)
        assert derived_I < I.bound
        assert derived_II < II.bound
        # the three displayed bounds add up to the rate engine's bound_B
        for t, R in ((10.0, 2.0), (3.0, 1.0), (7.5, 1.7), (20.0, 3.0)):
            bounds = term_bounds(evaluate_contour(bv, ext, M2, t, R), self.cert())
            total = sum(b.bound for b in bounds)
            want = bound_B(self.cert().C, M2(R), t, R)
            assert abs(total - want) <= 4 * np.spacing(want), (t, R, total, want)

    def test_third_term_formula(self):
        bv, ext = exp_density()
        t, R = 10.0, 1.0
        _, _, III = term_bounds(evaluate_contour(bv, ext, M2, t, R), self.cert())
        want = 2.0 / (t * R ** 3) + 2.0 * R * 4.0 * math.exp(-t / 4.0)
        assert III.bound == pytest.approx(want, rel=1e-12)
        assert III.bound == derived_term_bounds(1.0, M2(R), t, R)[2]

    def test_third_term_decays_in_time(self):
        bv, ext = exp_density()
        vals = []
        for t in (10.0, 20.0, 40.0):
            _, _, III = term_bounds(evaluate_contour(bv, ext, M2, t, 2.0), self.cert())
            vals.append((III.value, III.bound))
        assert vals[0][0] > vals[1][0] > vals[2][0]
        assert vals[0][1] > vals[1][1] > vals[2][1]


class TestExtensions:
    def test_rational_evaluates(self):
        ext = RationalExtension((1.0,), (1.0, 0.0, 1.0))  # 1/(1+z^2)
        assert ext(1.0 + 0j) == pytest.approx(0.5)

    def test_rational_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            RationalExtension((1.0,), (0.0, 0.0))

    def test_eta_shift_value(self):
        ext = EtaShiftExtension()
        assert complex(ext(np.asarray([1.0 + 0j]))[0]).real == pytest.approx(
            math.pi ** 2 / 12.0, abs=1e-12)
        assert complex(ext(np.asarray([0j]))[0]).real == pytest.approx(
            math.log(2.0), abs=1e-12)
        assert ext(np.asarray([0j]))[0] == pytest.approx(eta(1.0), abs=1e-14)

    def test_singular_extension_is_named(self):
        bv = BVFunction(1)
        ext = RationalExtension((1.0,), (0.0, 1.0))  # 1/z, singular at 0
        with pytest.raises(ValueError, match="singular"):
            residual(evaluate_contour(bv, ext, M2, 4.0, 2.0))

    def test_agreement_with_truncated_transform(self, rng):
        bv, ext = exp_density()
        cert = TauberianCertificate(C=1.0, x0=1.0)
        check, point = extension_agreement(bv, ext, cert, rng, 1e-6)
        assert check.value <= 1e-6
        assert (check.case_id, check.bound) == ("agreement", 1e-6) and check.passed()
        assert point.z.size == 12
        assert float(np.max(point.truncation_bound)) == pytest.approx(1e-9, rel=1e-12)
        assert float(np.max(point.t_star)) > 0.0


class TestLeftPathExtension:
    """evaluate_contour calls the extension once, on every left-path node."""

    def test_one_call_gives_each_pieces_values(self):
        bv, ext = alternating_series(2000)
        sizes = []

        def counted(z):
            sizes.append(np.size(z))
            return ext(z)

        spec = build_contour(M2, 1.5, 3.0)
        term3 = evaluate_contour(bv, counted, M2, 3.0, 1.5).terms[2]
        assert sizes == [sum(p.nodes.size for p in spec.gamma2)]
        assert len(term3) == len(spec.gamma2) == 6
        for piece, values in zip(spec.gamma2, term3):
            assert np.array_equal(values.piece.nodes, piece.nodes)
            want = _eval_extension(ext, piece.nodes, 1)
            assert np.array_equal(values.F.view(np.uint64), want.view(np.uint64))

    def test_first_singular_node_is_named(self):
        # singular below Im z = 0.5: the first such node of the path, in piece
        # order, is the one named, as when each piece took its own call
        spec = build_contour(M2, 2.0, 4.0)
        nodes = np.concatenate([p.nodes for p in spec.gamma2])
        first = complex(nodes[nodes.imag < 0.5][0])

        def ext(z):
            return np.where(z.imag < 0.5, np.inf, 1.0 / (z + 1.0))

        with pytest.raises(ValueError, match=f"singular near z = {re.escape(str(first))}$"):
            evaluate_contour(BVFunction(1), ext, M2, 4.0, 2.0)


class TestAgreementOneCall:
    @pytest.mark.parametrize("pair", [exp_density, lambda: alternating_series(20_000)])
    def test_matches_the_point_loop(self, pair):
        bv, ext = pair()
        cert = TauberianCertificate(C=math.e, x0=1.0)
        for seed in (0, 7, 2026):
            check, _ = extension_agreement(bv, ext, cert, np.random.default_rng(seed), 1e-6)
            want = loop_agreement(bv, ext, cert, np.random.default_rng(seed), 12)
            assert abs(check.value - want) <= 1e-12

    def test_one_transform_and_one_extension_call(self, monkeypatch):
        calls = {"transform": [], "extension": []}

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls[name].append(np.size(args[1]))
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(contour_module, "improper_laplace",
                            spy("transform", contour_module.improper_laplace))
        monkeypatch.setattr(contour_module, "_eval_extension",
                            spy("extension", contour_module._eval_extension))
        bv, ext = alternating_series(2000)
        _, point = extension_agreement(bv, ext, TauberianCertificate(C=math.e, x0=1.0),
                                       np.random.default_rng(1), 1e-6)
        assert calls == {"transform": [12], "extension": [12]}
        assert point.z.size == 12


class TestContourDump:
    def test_row_schema_and_coverage(self):
        bv, ext = exp_density()
        rows = contour_dump(evaluate_contour(bv, ext, M2, 5.0, 2.0))
        names = {r[0] for r in rows}
        assert "gamma1" in names and "gamma1_reflected" in names
        assert any(n.startswith("gamma2") for n in names)
        for r in rows[:50]:
            piece, s_param, re_z, im_z, mag = r
            assert isinstance(piece, str)
            assert math.isfinite(float(s_param))
            assert math.isfinite(float(re_z)) and math.isfinite(float(im_z))
            assert float(mag) >= 0.0
        # Python floats, not numpy scalars: the CLI formats them without converting
        assert all(type(cell) is float for r in rows for cell in r[1:])
        assert len(contour_dump(evaluate_contour(bv, ext, M2, 2.0, 5.0))) == build_contour(
            M2, 5.0, 2.0).total_nodes

    @pytest.mark.parametrize("instance", ["exp_density", "alternating_jumps"])
    def test_dump_rows_integrate_to_the_measured_terms(self, instance):
        # the dump and the term bounds reduce one evaluation: weighting each
        # term's dump rows by arc length gives that term's measured norm
        if instance == "exp_density":
            bv, ext = exp_density()
            ev = evaluate_contour(bv, ext, M2, 5.0, 2.0)
        else:
            bv, ext = alternating_series(2000)
            ev = evaluate_contour(bv, ext, GrowthBound("affine", 1.25), 3.0, 1.5)
        rows = contour_dump(ev)
        bounds = term_bounds(ev, TauberianCertificate(C=1.0, x0=1.0))
        start = 0
        for term, bound in zip(ev.terms, bounds):
            weights = np.concatenate([p.piece.abs_weights for p in term])
            term_rows = rows[start:start + weights.size]
            start += weights.size
            assert {r[0] for r in term_rows} == {p.piece.name for p in term}
            mags = np.asarray([r[4] for r in term_rows])
            # the two reductions multiply |dz|, |g| and ||F|| in different orders
            assert np.sum(weights * mags) / (2 * math.pi) == pytest.approx(
                bound.value, rel=1e-13, abs=0.0)
        assert start == len(rows) == ev.spec.total_nodes
