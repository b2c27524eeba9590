"""Dirichlet-series instances, the certificate on them and on a bounded density,
and growth admissibility on the left strip."""

import math
from dataclasses import replace

import numpy as np
import pytest

from tauberian_lab.bv import BVFunction, DensityPiece
from tauberian_lab.contour import EtaShiftExtension, RationalExtension
from tauberian_lab.dirichlet import CoefficientSequence, build_instance, partial_sum_decay
from tauberian_lab.growth import GrowthBound
from tauberian_lab.oracles import log_two
from tauberian_lab.transform import TauberianCertificate, improper_laplace
from tauberian_lab.vectors import vector_norm
from tauberian_lab.verify import check_admissibility, check_certificate

from exact import exp_density, named_rule


def coefficients(c: CoefficientSequence, n: np.ndarray) -> np.ndarray:
    """b_n for a 1-based index array: the table repeated."""
    return c.table[(n - 1) % c.table.shape[0]]


class TestCoefficientSequence:
    def test_alternating(self):
        c = named_rule("alternating")
        vals = coefficients(c, np.arange(1, 6))
        np.testing.assert_allclose(vals[:, 0], [1, -1, 1, -1, 1])
        assert c.sup_norm() == 1.0

    def test_ones(self):
        c = named_rule("ones")
        assert np.all(coefficients(c, np.arange(1, 4)) == 1.0)

    def test_named_rules_are_bitwise_their_closed_forms(self):
        n = np.arange(1, 10**6 + 1)
        for coeffs, want in (
                (named_rule("alternating"),
                 np.where(n % 2 == 1, 1.0, -1.0).astype(complex)[:, None]),
                (named_rule("ones"), np.ones((n.size, 1), dtype=complex))):
            got = coefficients(coeffs, n)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
            assert coeffs.sup_norm() == coeffs.sup_norm("sup") == 1.0
            assert coeffs.dimension == 1 and coeffs.max_n is None

    def test_every_kind_needs_a_table(self):
        with pytest.raises(TypeError):
            CoefficientSequence("ones")
        with pytest.raises(ValueError, match="nonempty table"):
            CoefficientSequence("periodic", np.zeros((0, 1), dtype=complex))

    def test_periodic(self):
        c = CoefficientSequence("periodic", np.asarray([[1.0], [0.0], [-1.0]], dtype=complex))
        vals = coefficients(c, np.arange(1, 8))[:, 0]
        np.testing.assert_allclose(vals, [1, 0, -1, 1, 0, -1, 1])
        assert c.sup_norm() == 1.0

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "coeffs.txt"
        p.write_text("# a comment\n1.0 0.0\n\n-0.5 0.25\n0.0 1.0\n")
        c = CoefficientSequence.from_file(p)
        assert c.max_n == 3
        vals = c.table[:, 0]
        np.testing.assert_allclose(vals, [1.0, -0.5 + 0.25j, 1.0j])

    def test_file_errors_carry_line_numbers(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1.0 0.0\n2.0 0.0\n3.0\n")
        with pytest.raises(ValueError, match=r"bad\.txt:3"):
            CoefficientSequence.from_file(p)
        p2 = tmp_path / "ragged.txt"
        p2.write_text("1.0 0.0 2.0 0.0\n1.0 0.0\n")
        with pytest.raises(ValueError, match=r"ragged\.txt:2"):
            CoefficientSequence.from_file(p2)
        p3 = tmp_path / "empty.txt"
        p3.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no coefficients"):
            CoefficientSequence.from_file(p3)
        for token in ("nan", "inf", "1e400"):
            p4 = tmp_path / "nonfinite.txt"
            p4.write_text(f"1.0 0.0\n{token} 0\n")
            with pytest.raises(ValueError, match=rf"nonfinite\.txt:2: .* got '{token}'"):
                CoefficientSequence.from_file(p4)


class TestBuildInstance:
    def test_jump_layout(self):
        inst = build_instance(named_rule("ones"), n_max=3)
        bv = inst.bv
        np.testing.assert_allclose(bv.jump_times, [0.0, math.log(2.0), math.log(3.0)])
        np.testing.assert_allclose(bv.jump_sizes[:, 0], [1.0, 0.5, 1.0 / 3.0])
        # jump locations invert exactly back to the integer index
        n_back = np.exp(bv.jump_times)
        np.testing.assert_allclose(n_back, [1.0, 2.0, 3.0], rtol=1e-14)

    def test_partial_sums_match_by_hand(self):
        inst = build_instance(named_rule("alternating"), n_max=10)
        # value just past log 3 is 1 - 1/2 + 1/3
        got = inst.bv.value_at(math.log(3.0) + 1e-9)[0].real
        assert got == pytest.approx(1.0 - 0.5 + 1.0 / 3.0, rel=1e-12)
        assert vector_norm(inst.bv.value_at(0.0), inst.bv.norm_kind) == 0.0

    def test_certificate_fields(self):
        inst = build_instance(named_rule("alternating"), n_max=100)
        assert inst.certificate.C == math.e  # max(sup ||b_n||, 1) e with sup ||b_n|| = 1
        assert inst.certificate.x0 == 1.0
        assert inst.certificate.R_rule(2.0) == pytest.approx(math.exp(2.0))
        assert inst.t_max == pytest.approx(math.log(100.0))

    def test_alternating_limit_is_computed(self):
        inst = build_instance(named_rule("alternating"), n_max=50)
        assert inst.f0 is not None
        assert inst.f0[0].real == pytest.approx(math.log(2.0), abs=1e-14)
        assert "series" in inst.f0_provenance

    def test_ones_has_no_limit(self):
        inst = build_instance(named_rule("ones"), n_max=50)
        assert inst.f0 is None

    @pytest.mark.parametrize("kind", ["ones", "alternating", "periodic", "file"])
    def test_jumps_are_the_coefficients_over_n_at_log_n(self, kind, tmp_path):
        # bit for bit b_n / n (numpy's complex division by n) at log n; the
        # periodic table holds zero and negative parts, the file more rows than n_max
        periodic = [[1.5 - 0.25j, 0.0], [-0.7j, -2.0 + 0.0j], [0.3, 4.0 - 1e-3j]]
        path = tmp_path / "c.txt"
        values = np.linspace(-2.0, 3.0, 1237)
        path.write_text("".join(f"{v:.17g} {-v / 3:.17g}\n" for v in values))
        coeffs = {"ones": named_rule("ones"),
                  "alternating": named_rule("alternating"),
                  "periodic": CoefficientSequence("periodic", np.asarray(periodic)),
                  "file": CoefficientSequence.from_file(path)}[kind]
        n = np.arange(1, 1001)
        bv = build_instance(coeffs, n_max=1000).bv
        want = coefficients(coeffs, n) / n[:, None]
        assert bv.jump_sizes.shape == want.shape
        assert np.array_equal(bv.jump_sizes, want)
        live = want.view(float) != 0
        assert np.array_equal(bv.jump_sizes.view(float)[live].view(np.uint64),
                              want.view(float)[live].view(np.uint64))
        assert np.array_equal(bv.jump_times.view(np.uint64), np.log(n).view(np.uint64))

    def test_n_max_validation(self, tmp_path):
        with pytest.raises(ValueError):
            build_instance(named_rule("ones"), n_max=1)
        p = tmp_path / "c.txt"
        p.write_text("1.0 0.0\n1.0 0.0\n")
        with pytest.raises(ValueError, match="lower n_max"):
            build_instance(CoefficientSequence.from_file(p), n_max=5)


class TestPartialSumDecay:
    def test_alternating_decay_scale(self):
        inst = build_instance(named_rule("alternating"), n_max=200_000)
        M = GrowthBound("affine", 1.25)
        rows = partial_sum_decay(inst, M, [10.0])
        row = rows[0]
        # |A(t) - log 2| ~ 1/(2 e^t) for the alternating harmonic tail
        scale = 1.0 / (2.0 * math.exp(10.0))
        assert row.decay_norm == pytest.approx(scale, rel=4.0)
        assert row.margin >= 0.0
        assert row.branch in ("opt_inside", "cutoff_limited")

    def test_margins_nonnegative_on_grid(self):
        inst = build_instance(named_rule("alternating"), n_max=200_000)
        M = GrowthBound("affine", 1.25)
        rows = partial_sum_decay(inst, M, np.linspace(0.5, 12.0, 24))
        assert all(r.margin >= 0.0 for r in rows if math.isfinite(r.margin))

    def test_below_threshold_rows_are_nan(self):
        inst = build_instance(named_rule("alternating"), n_max=1_000)
        # a deliberately huge growth bound pushes T' above the whole grid
        M = GrowthBound("constant", 10.0)
        rows = partial_sum_decay(inst, M, [1.0, 2.0])
        assert all(r.branch == "below_t_prime" for r in rows)
        assert all(math.isnan(r.bound_B) for r in rows)
        assert all(math.isfinite(r.decay_norm) for r in rows)

    def test_one_inversion_per_grid(self, inversion_sizes):
        inst = build_instance(named_rule("alternating"), n_max=200_000)
        # M = 5, C = e puts T' ~ 6.09 inside the grid: 12 of the 24 rows are above it
        rows = partial_sum_decay(inst, GrowthBound("constant", 5.0), np.linspace(0.5, 12.0, 24))
        assert inversion_sizes == [12]
        assert [r.branch for r in rows[:12]] == ["below_t_prime"] * 12
        assert all(r.branch == "opt_inside" for r in rows[12:])

    def test_missing_f0_is_refused(self):
        inst = build_instance(named_rule("ones"), n_max=100)
        with pytest.raises(ValueError, match="give f0 in the problem file"):
            partial_sum_decay(inst, GrowthBound("affine", 2.0), [2.0])

    def test_explicit_f0_override(self):
        zeros = CoefficientSequence("periodic", np.zeros((1, 1), dtype=complex))
        inst = build_instance(zeros, n_max=100)
        rows = partial_sum_decay(replace(inst, f0=np.zeros(1)), GrowthBound("affine", 2.0), [2.0])
        assert rows[0].decay_norm == 0.0

    def test_grid_beyond_faithful_range_is_refused(self):
        inst = build_instance(named_rule("alternating"), n_max=100)
        with pytest.raises(ValueError, match="log\\(n_max\\)"):
            partial_sum_decay(inst, GrowthBound("affine", 1.25), [math.log(100.0) + 0.5])


class TestTauberianConditionForInstances:
    def test_alternating_within_e(self):
        inst = build_instance(named_rule("alternating"), n_max=100_000)
        report = check_certificate(inst.bv, inst.certificate,
                                   x_grid=np.geomspace(1.0, 200.0, 32), quad_tol=1e-12)[0]
        assert report.passed()
        # the known sharp level: sup of x e^{-xt} sum_{log n < t} n^{x-1} b_n
        assert report.grid_sup <= math.e

    def test_bounded_density_sup_at_most_c0(self):
        # dA = a(s) ds with |a| <= c0 = 1: x e^{-xt} int_0^t e^{xs} |a(s)| ds <= 1 - e^{-xt}
        report = check_certificate(exp_density()[0], TauberianCertificate(C=1.0, x0=1.0),
                                   x_grid=np.geomspace(1.0, 30.0, 12))[0]
        assert report.passed()
        assert report.grid_sup <= 1.0 + 1e-9


class TestBoundedDensityInstances:
    def test_cosine_transform_matches_density(self):
        # int_0^t e^{-zs} cos s ds approaches z/(1+z^2) as t grows; cos s = (e^{is} + e^{-is})/2
        cosine = BVFunction.from_jumps([], pieces=tuple(
            DensityPiece(0.0, math.inf, "exponential", (0.5,), rate) for rate in (1j, -1j)))
        z = 1.3 + 0.0j
        point = improper_laplace(cosine, [z], TauberianCertificate(C=1.0, x0=1.0), target_err=1e-9)
        assert point.value[0, 0] == pytest.approx(z / (1.0 + z * z), abs=1e-8)


class TestAdmissibility:
    def test_cosine_extension_violates_near_poles(self):
        # z/(1+z^2) blows up near z = +-i: inside the strip of M = 2 the
        # bound fails around |y| = 1
        ext = RationalExtension((0.0, 1.0), (1.0, 0.0, 1.0))
        report = check_admissibility(ext, GrowthBound("constant", 2.0))
        assert report.grid_sup > 0.0
        assert abs(abs(report.witness_t) - 1.0) <= 0.1

    def test_decaying_exp_extension_is_admissible(self):
        # 1/(1+z) is bounded by 2 on the whole strip of M = 2 away from -1
        report = check_admissibility(exp_density()[1], GrowthBound("constant", 2.0))
        assert report.grid_sup <= 0.0
        assert "strip depths" in report.note

    def test_singular_sample_reported(self):
        ext = RationalExtension((1.0,), (0.0, 1.0))  # 1/z singular at 0
        report = check_admissibility(ext, GrowthBound("constant", 2.0))
        assert math.isinf(report.grid_sup)
        assert "singular" in report.note

    def test_eta_shift_admissible_after_calibration(self):
        # the affine c = 1.25 of dirichlet_alternating.json holds on the default window
        report = check_admissibility(EtaShiftExtension(), GrowthBound("affine", 1.25))
        assert report.grid_sup <= 0.0



def test_f0_provenance_is_not_a_literal():
    # the shipped limit value matches the oracle to full precision
    assert log_two() == pytest.approx(math.log(2.0), abs=5e-16)
