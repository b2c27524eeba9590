"""Dirichlet-series instances, bounded densities, and growth admissibility."""

import math

import numpy as np
import pytest

from tauberian_lab import (
    CoefficientSequence,
    EtaShiftExtension,
    GrowthBound,
    bounded_density_instance,
    build_instance,
    calibrate_affine_growth,
    check_admissibility,
    check_tauberian,
    partial_sum_decay,
    vector_norm,
)
from tauberian_lab.oracles import log_two


class TestCoefficientSequence:
    def test_alternating(self):
        c = CoefficientSequence.alternating()
        vals = c.values(np.arange(1, 6))
        np.testing.assert_allclose(vals[:, 0], [1, -1, 1, -1, 1])
        assert c.sup_norm() == 1.0

    def test_ones(self):
        c = CoefficientSequence.ones()
        assert np.all(c.values(np.arange(1, 4)) == 1.0)

    def test_periodic(self):
        c = CoefficientSequence.periodic([1.0, 0.0, -1.0])
        vals = c.values(np.arange(1, 8))[:, 0]
        np.testing.assert_allclose(vals, [1, 0, -1, 1, 0, -1, 1])
        assert c.sup_norm() == 1.0

    def test_indices_are_one_based(self):
        with pytest.raises(ValueError):
            CoefficientSequence.ones().values(np.asarray([0]))

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "coeffs.txt"
        p.write_text("# a comment\n1.0 0.0\n\n-0.5 0.25\n0.0 1.0\n")
        c = CoefficientSequence.from_file(p)
        assert c.max_n == 3
        vals = c.values(np.asarray([1, 2, 3]))[:, 0]
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

    def test_file_index_overflow_names_source(self, tmp_path):
        p = tmp_path / "short.txt"
        p.write_text("1.0 0.0\n2.0 0.0\n")
        c = CoefficientSequence.from_file(p)
        with pytest.raises(ValueError, match="2 coefficients"):
            c.values(np.asarray([3]))


class TestBuildInstance:
    def test_jump_layout(self):
        inst = build_instance(CoefficientSequence.ones(), n_max=3)
        bv = inst.bv
        np.testing.assert_allclose(bv.jump_times, [0.0, math.log(2.0), math.log(3.0)])
        np.testing.assert_allclose(bv.jump_sizes[:, 0], [1.0, 0.5, 1.0 / 3.0])
        # jump locations invert exactly back to the integer index
        n_back = np.exp(bv.jump_times)
        np.testing.assert_allclose(n_back, [1.0, 2.0, 3.0], rtol=1e-14)

    def test_partial_sums_match_by_hand(self):
        inst = build_instance(CoefficientSequence.alternating(), n_max=10)
        # value just past log 3 is 1 - 1/2 + 1/3
        got = inst.bv.value_at(math.log(3.0) + 1e-9)[0].real
        assert got == pytest.approx(1.0 - 0.5 + 1.0 / 3.0, rel=1e-12)
        assert vector_norm(inst.bv.value_at(0.0), inst.bv.norm_kind) == 0.0

    def test_certificate_fields(self):
        inst = build_instance(CoefficientSequence.alternating(), n_max=100)
        assert inst.d_constant == 1.0
        assert inst.certificate.C == pytest.approx(math.e)
        assert inst.certificate.x0 == 1.0
        assert inst.certificate.R_rule(2.0) == pytest.approx(math.exp(2.0))
        assert inst.t_max == pytest.approx(math.log(100.0))

    def test_alternating_limit_is_computed(self):
        inst = build_instance(CoefficientSequence.alternating(), n_max=50)
        assert inst.f0 is not None
        assert inst.f0[0].real == pytest.approx(math.log(2.0), abs=1e-14)
        assert "series" in inst.f0_provenance

    def test_ones_has_no_limit(self):
        inst = build_instance(CoefficientSequence.ones(), n_max=50)
        assert inst.f0 is None

    def test_n_max_validation(self, tmp_path):
        with pytest.raises(ValueError):
            build_instance(CoefficientSequence.ones(), n_max=1)
        p = tmp_path / "c.txt"
        p.write_text("1.0 0.0\n1.0 0.0\n")
        with pytest.raises(ValueError, match="lower n_max"):
            build_instance(CoefficientSequence.from_file(p), n_max=5)


class TestPartialSumDecay:
    def test_alternating_decay_scale(self):
        inst = build_instance(CoefficientSequence.alternating(), n_max=200_000)
        M = GrowthBound.affine(1.25)
        rows = partial_sum_decay(inst, M, [10.0])
        row = rows[0]
        # |A(t) - log 2| ~ 1/(2 e^t) for the alternating harmonic tail
        scale = 1.0 / (2.0 * math.exp(10.0))
        assert row.decay_norm == pytest.approx(scale, rel=4.0)
        assert row.margin >= 0.0
        assert row.branch in ("opt_inside", "cutoff_limited")

    def test_margins_nonnegative_on_grid(self):
        inst = build_instance(CoefficientSequence.alternating(), n_max=200_000)
        M = GrowthBound.affine(1.25)
        rows = partial_sum_decay(inst, M, np.linspace(0.5, 12.0, 24))
        assert all(r.margin >= 0.0 for r in rows if math.isfinite(r.margin))

    def test_below_threshold_rows_are_nan(self):
        inst = build_instance(CoefficientSequence.alternating(), n_max=1_000)
        # a deliberately huge growth bound pushes T' above the whole grid
        M = GrowthBound.constant(10.0)
        rows = partial_sum_decay(inst, M, [1.0, 2.0])
        assert all(r.branch == "below_t_prime" for r in rows)
        assert all(math.isnan(r.bound_B) for r in rows)
        assert all(math.isfinite(r.decay_norm) for r in rows)

    def test_missing_f0_is_refused(self):
        inst = build_instance(CoefficientSequence.ones(), n_max=100)
        with pytest.raises(ValueError, match="f0"):
            partial_sum_decay(inst, GrowthBound.affine(2.0), [2.0])

    def test_explicit_f0_override(self):
        inst = build_instance(CoefficientSequence.periodic([0.0]), n_max=100)
        rows = partial_sum_decay(inst, GrowthBound.affine(2.0), [2.0], f0=[0.0])
        assert rows[0].decay_norm == 0.0

    def test_grid_beyond_faithful_range_is_refused(self):
        inst = build_instance(CoefficientSequence.alternating(), n_max=100)
        with pytest.raises(ValueError, match="log\\(n_max\\)"):
            partial_sum_decay(inst, GrowthBound.affine(1.25), [math.log(100.0) + 0.5])


class TestTauberianConditionForInstances:
    def test_alternating_within_e(self):
        inst = build_instance(CoefficientSequence.alternating(), n_max=100_000)
        report = check_tauberian(
            inst.bv, inst.certificate,
            x_grid=np.geomspace(1.0, 200.0, 32), quad_tol=1e-12)
        assert report.passed()
        # the known sharp level: sup of x e^{-xt} sum_{log n < t} n^{x-1} b_n
        assert report.grid_sup <= math.e

    def test_bounded_density_sup_at_most_c0(self):
        inst = bounded_density_instance("decaying_exp", c0=1.0)
        report = check_tauberian(inst.bv, inst.certificate,
                                 x_grid=np.geomspace(1.0, 30.0, 12))
        assert report.passed()
        assert report.grid_sup <= 1.0 + 1e-9


class TestBoundedDensityInstances:
    def test_kinds_and_extensions(self):
        cos_inst = bounded_density_instance("cosine")
        z = np.asarray([1.0 + 0.5j])
        got = np.asarray(cos_inst.extension(z))[0]
        assert got == pytest.approx(z[0] / (1.0 + z[0] ** 2), rel=1e-12)

        dec = bounded_density_instance("decaying_exp", c0=2.0)
        assert np.asarray(dec.extension(np.asarray([1.0 + 0j])))[0] == pytest.approx(1.0)

        const = bounded_density_instance("constant")
        assert np.asarray(const.extension(np.asarray([2.0 + 0j])))[0] == pytest.approx(0.5)

        with pytest.raises(ValueError, match="kind"):
            bounded_density_instance("sawtooth")
        with pytest.raises(ValueError):
            bounded_density_instance("cosine", c0=-1.0)

    def test_cosine_transform_matches_density(self):
        # int_0^t e^{-zs} cos s ds approaches z/(1+z^2) as t grows
        from tauberian_lab import TauberianCertificate, improper_laplace

        inst = bounded_density_instance("cosine")
        z = 1.3 + 0.0j
        point = improper_laplace(inst.bv, z, inst.certificate, target_err=1e-9)
        assert point.value[0] == pytest.approx(z / (1.0 + z * z), abs=1e-8)


class TestAdmissibility:
    def test_cosine_extension_violates_near_poles(self):
        # z/(1+z^2) blows up near z = +-i: inside the strip of M = 2 the
        # bound fails around |y| = 1
        inst = bounded_density_instance("cosine")
        report = check_admissibility(inst.extension, GrowthBound.constant(2.0))
        assert report.grid_sup > 0.0
        assert abs(abs(report.witness_t) - 1.0) <= 0.1

    def test_decaying_exp_extension_is_admissible(self):
        # 1/(1+z) is bounded by 2 on the whole strip of M = 2 away from -1
        inst = bounded_density_instance("decaying_exp")
        report = check_admissibility(inst.extension, GrowthBound.constant(2.0))
        assert report.grid_sup <= 0.0
        assert "strip depths" in report.note

    def test_singular_sample_reported(self):
        from tauberian_lab import RationalExtension

        ext = RationalExtension((1.0,), (0.0, 1.0))  # 1/z singular at 0
        report = check_admissibility(ext, GrowthBound.constant(2.0))
        assert math.isinf(report.grid_sup)
        assert "singular" in report.note

    def test_eta_shift_admissible_after_calibration(self):
        ext = EtaShiftExtension()
        M = calibrate_affine_growth(ext)
        # deterministic fixed point: needed c = 1, times the 1.25 safety
        assert M(0.0) == pytest.approx(1.25, rel=1e-9)
        report = check_admissibility(ext, M)
        assert report.grid_sup <= 0.0

    def test_calibration_rejects_singular_window(self):
        from tauberian_lab import RationalExtension

        ext = RationalExtension((1.0,), (0.0, 1.0))
        with pytest.raises(ValueError, match="singular"):
            calibrate_affine_growth(ext)

    def test_x_fracs_validated(self):
        with pytest.raises(ValueError):
            check_admissibility(EtaShiftExtension(), GrowthBound.affine(1.25),
                                x_fracs=(1.5,))


def test_f0_provenance_is_not_a_literal():
    # the shipped limit value matches the oracle to full precision
    assert log_two() == pytest.approx(math.log(2.0), abs=5e-16)
