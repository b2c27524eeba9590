"""Contour machinery: geometry, the residue identity, and per-term bounds."""

import math

import numpy as np
import pytest

from tauberian_lab import (
    BVFunction,
    ContourBudgetError,
    EtaShiftExtension,
    GrowthBound,
    RationalExtension,
    TauberianCertificate,
    build_contour,
    cauchy_identity_report,
    cauchy_residual,
    contour_dump,
    extension_agreement,
    fudge_factor,
    term_bounds,
)
from tauberian_lab.oracles import eta

M2 = GrowthBound.constant(2.0)


def exp_density_pair():
    """Density e^{-s} with transform 1/(1+z), the workhorse rational case."""
    bv = BVFunction.from_density("exponential", rate=-1.0)
    ext = RationalExtension((1.0,), (1.0, 1.0))
    return bv, ext


class TestFudgeFactor:
    def test_zeros_on_the_imaginary_crossings(self):
        R = 3.0
        assert abs(fudge_factor(1j * R, R)) == 0.0
        assert abs(fudge_factor(-1j * R, R)) == 0.0

    def test_value_on_the_real_axis(self):
        assert fudge_factor(2.0, 2.0) == pytest.approx(4.0)
        assert fudge_factor(0.0, 5.0) == pytest.approx(1.0)

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

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            build_contour(M2, 0.5, 5.0)
        with pytest.raises(ValueError):
            build_contour(M2, 2.0, 0.0)
        with pytest.raises(ValueError):
            build_contour(M2, 2.0, 5.0, density=-1.0)


class TestCauchyIdentity:
    def test_rational_family_machine_precision(self):
        bv, ext = exp_density_pair()
        for t in (2.0, 5.0, 10.0):
            for R in (1.0, 2.0, 5.0):
                res = cauchy_residual(bv, ext, M2, t, R)
                assert res <= 1e-6, (t, R)
                assert res <= 1e-9, (t, R)  # in practice it is machine-level

    def test_report_fields(self):
        bv, ext = exp_density_pair()
        rep = cauchy_identity_report(bv, ext, M2, 5.0, 2.0)
        # reference A(t) - f(0) = (1 - e^{-t}) - 1 = -e^{-t}
        assert rep.reference[0] == pytest.approx(-math.exp(-5.0), rel=1e-12)
        assert rep.abs_error <= 1e-12
        assert rep.total_nodes > 0
        assert rep.remainder_bound == 0.0  # no jumps, nothing truncated

    def test_zero_instance_numerator(self):
        # A = 0 with extension 0: both sides vanish; the guarded residual
        # denominator must not blow the numerator up
        bv = BVFunction.zero()
        ext = RationalExtension((0.0,), (1.0,))
        rep = cauchy_identity_report(bv, ext, M2, 4.0, 2.0)
        assert rep.abs_error <= 1e-12

    def test_explicit_f0_override(self):
        bv, ext = exp_density_pair()
        honest = cauchy_identity_report(bv, ext, M2, 5.0, 2.0)
        shifted = cauchy_identity_report(bv, ext, M2, 5.0, 2.0, f0=[0.5])
        assert honest.abs_error < 1e-12
        assert shifted.abs_error == pytest.approx(0.5, abs=1e-6)

    def test_junction_continuity(self):
        # the fudge factor kills the integrand at z = +-iR, where the arc
        # meets the left path
        from tauberian_lab.bv import exp_tail_integral

        bv, ext = exp_density_pair()
        t, R = 5.0, 2.0
        rows = contour_dump(bv, ext, M2, t, R)
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
        bv, ext = exp_density_pair()
        t, R = 10.0, 5.0
        coarse = cauchy_residual(bv, ext, M2, t, R, density=0.1)
        fine = cauchy_residual(bv, ext, M2, t, R, density=0.2)
        assert coarse > 1e-12  # meaningfully above the machine floor
        assert coarse >= 4.0 * fine

    def test_eta_extension_identity(self):
        # alternating Dirichlet jumps against the eta(z+1) extension
        n = np.arange(1, 1_000_001)
        sizes = (np.where(n % 2 == 1, 1.0, -1.0) / n).astype(complex)
        bv = BVFunction(dimension=1, jump_times=np.log(n.astype(float)),
                        jump_sizes=sizes.reshape(-1, 1))
        M = GrowthBound.affine(1.25)
        res = cauchy_residual(bv, EtaShiftExtension(), M, 3.0, 1.5)
        assert res <= 1e-5

    def test_report_carries_jump_sum_remainder(self):
        # tail and partial kernel calls split the jumps at t; their bounds add
        from tauberian_lab.bv import _jump_exp_sum

        n = np.arange(1, 2001)
        sizes = (np.where(n % 2 == 1, 1.0, -1.0) / n).astype(complex).reshape(-1, 1)
        bv = BVFunction(dimension=1, jump_times=np.log(n.astype(float)), jump_sizes=sizes)
        t, R = 3.0, 1.5
        rep = cauchy_identity_report(bv, EtaShiftExtension(), GrowthBound.affine(1.25), t, R)
        k = int(np.searchsorted(bv.jump_times, t))
        z = np.asarray([R + 0j])
        tail = _jump_exp_sum(bv.jump_times[k:], sizes[k:], z, t)[1]
        partial = _jump_exp_sum(bv.jump_times[:k], sizes[:k], -z, t)[1]
        assert rep.remainder_bound == pytest.approx(tail + partial, rel=1e-12)
        assert rep.remainder_bound > 0.0


class TestTermBounds:
    def cert(self) -> TauberianCertificate:
        return TauberianCertificate(C=1.0, x0=1.0)

    def test_margins_nonnegative(self):
        bv, ext = exp_density_pair()
        for t, R in ((5.0, 1.0), (10.0, 2.0)):
            I, II, III = term_bounds(bv, self.cert(), M2, t, R, ext)
            for tb in (I, II, III):
                assert tb.margin_displayed >= -1e-9 * tb.bound_displayed, (t, R, tb.name)
                assert tb.margin_derived >= -1e-9 * tb.bound_derived, (t, R, tb.name)

    def test_displayed_constants(self):
        bv, ext = exp_density_pair()
        I, II, III = term_bounds(bv, self.cert(), M2, 10.0, 2.0, ext)
        assert I.bound_displayed == pytest.approx(6.0 / 2.0)
        assert II.bound_displayed == pytest.approx(4.0 / 2.0)
        # the derivation's sharper constants sit strictly inside the display
        assert I.bound_derived < I.bound_displayed
        assert II.bound_derived < II.bound_displayed

    def test_third_term_formula(self):
        bv, ext = exp_density_pair()
        t, R = 10.0, 1.0
        _, _, III = term_bounds(bv, self.cert(), M2, t, R, ext)
        want = 2.0 / (t * R ** 3) + 2.0 * R * 4.0 * math.exp(-t / 4.0)
        assert III.bound_displayed == pytest.approx(want, rel=1e-12)
        assert III.bound_derived == III.bound_displayed

    def test_third_term_decays_in_time(self):
        bv, ext = exp_density_pair()
        vals = []
        for t in (10.0, 20.0, 40.0):
            _, _, III = term_bounds(bv, self.cert(), M2, t, 2.0, ext)
            vals.append((III.measured, III.bound_displayed))
        assert vals[0][0] > vals[1][0] > vals[2][0]
        assert vals[0][1] > vals[1][1] > vals[2][1]


class TestExtensions:
    def test_rational_evaluates(self):
        ext = RationalExtension((1.0,), (1.0, 0.0, 1.0))  # 1/(1+z^2)
        assert ext(1.0 + 0j) == pytest.approx(0.5)
        assert "rational" in ext.describe()

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
        bv = BVFunction.zero()
        ext = RationalExtension((1.0,), (0.0, 1.0))  # 1/z, singular at 0
        with pytest.raises(ValueError, match="singular"):
            cauchy_identity_report(bv, ext, M2, 4.0, 2.0)

    def test_agreement_with_truncated_transform(self, rng):
        bv, ext = exp_density_pair()
        cert = TauberianCertificate(C=1.0, x0=1.0)
        gap = extension_agreement(bv, ext, cert, rng, n_points=12, target_err=1e-9)
        assert gap <= 1e-6


class TestContourDump:
    def test_row_schema_and_coverage(self):
        bv, ext = exp_density_pair()
        rows = contour_dump(bv, ext, M2, 5.0, 2.0)
        names = {r[0] for r in rows}
        assert "gamma1" in names and "gamma1_reflected" in names
        assert any(n.startswith("gamma2") for n in names)
        for r in rows[:50]:
            piece, s_param, re_z, im_z, mag = r
            assert isinstance(piece, str)
            assert math.isfinite(float(s_param))
            assert math.isfinite(float(re_z)) and math.isfinite(float(im_z))
            assert float(mag) >= 0.0
        spec = build_contour(M2, 5.0, 2.0)
        assert len(contour_dump(bv, ext, M2, 2.0, 5.0)) == build_contour(
            M2, 5.0, 2.0).total_nodes
