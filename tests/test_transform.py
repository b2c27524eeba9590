"""Finite and improper transforms: closed forms, tail certificates, domain."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauberian_lab import transform as transform_module
from tauberian_lab.bv import BVFunction, stieltjes_integral
from tauberian_lab.contour import eta
from tauberian_lab.growth import CutoffRule
from tauberian_lab.transform import TauberianCertificate, TruncationCapError, improper_laplace
from tauberian_lab.vectors import vector_norm
from tauberian_lab.verify import check_certificate

from exact import (alternating_series, density_integrator, draw_pieces, draw_sizes, exp_density,
                   exp_partial, jump_integrator, total_variation)


def test_finite_laplace_single_jump(rng):
    bv = jump_integrator([(2.0, 1.0)])
    for _ in range(20):
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-6.0, 6.0))
        t = rng.uniform(0.1, 10.0)
        want = np.exp(-z * 2.0) if t > 2.0 else 0.0
        assert stieltjes_integral(bv, -z, t)[0] == pytest.approx(want, abs=1e-13)


def test_finite_laplace_exp_density(rng):
    bv = density_integrator("exponential", rate=-0.5)
    for _ in range(20):
        z = complex(rng.uniform(-1.0, 2.0), rng.uniform(-4.0, 4.0))
        t = rng.uniform(0.2, 6.0)
        want = exp_partial(-0.5, z, t)
        got = stieltjes_integral(bv, -z, t, 1e-12)[0]
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_finite_laplace_at_zero_is_value():
    # f_t(0) recovers A(t)
    bv = jump_integrator([(0.5, 1.0), (1.5, -0.25)])
    assert stieltjes_integral(bv, 0.0, 2.0)[0] == pytest.approx(0.75, rel=1e-14)


def test_conjugate_symmetry(rng):
    # real integrator: f(conj z) = conj f(z)
    bv = jump_integrator(
        [(0.3, 1.0), (1.7, -0.6)],
        pieces=(),
    )
    for _ in range(10):
        z = complex(rng.uniform(0.1, 2.0), rng.uniform(0.1, 5.0))
        t = rng.uniform(1.0, 8.0)
        a = stieltjes_integral(bv, -z, t)[0]
        b = stieltjes_integral(bv, -z.conjugate(), t)[0]
        assert b == pytest.approx(a.conjugate(), rel=1e-13)


class TestImproper:
    def cert(self) -> TauberianCertificate:
        return TauberianCertificate(C=1.0, x0=1.0)

    def test_exp_density_limit(self):
        # int_0^inf e^{-zs} e^{-s} ds = 1/(z+1); at z = 1 this is 1/2
        bv = exp_density()[0]
        point = improper_laplace(bv, [1.0], self.cert(), target_err=1e-10)
        assert point.value[0, 0] == pytest.approx(0.5, abs=2e-10)
        assert point.truncation_bound[0] <= 1e-10

    def test_dirichlet_alternating_eta2(self):
        # jumps (-1)^{n+1}/n at log n, z = 1: sum (-1)^{n+1} n^{-2} = eta(2)
        bv = alternating_series(200_000)[0]
        cert = TauberianCertificate(C=math.e, x0=1.0)
        point = improper_laplace(bv, [1.0], cert, target_err=1e-6)
        want = eta(2.0).real
        assert point.value[0, 0].real == pytest.approx(want, abs=1e-6)
        assert want == pytest.approx(math.pi ** 2 / 12.0, abs=1e-13)

    def test_truncation_agreement_between_targets(self):
        # two evaluations must agree within the sum of their certified bounds
        bv = exp_density()[0]
        cert = self.cert()
        z = 0.7 + 0.9j
        for eps1, eps2 in ((1e-4, 1e-6), (1e-6, 1e-8), (1e-4, 1e-8)):
            p1 = improper_laplace(bv, [z], cert, target_err=eps1, quad_tol=1e-13)
            p2 = improper_laplace(bv, [z], cert, target_err=eps2, quad_tol=1e-13)
            gap = abs(p1.value[0, 0] - p2.value[0, 0])
            assert gap <= p1.truncation_bound[0] + p2.truncation_bound[0] + 1e-12

    def test_truncation_point_grows_with_oscillation(self):
        bv = exp_density()[0]
        cert = self.cert()
        slow, fast = improper_laplace(bv, [1.0 + 0.0j, 1.0 + 40.0j], cert).t_star
        assert fast > slow

    def test_domain_error_left_half_plane(self):
        bv = exp_density()[0]
        with pytest.raises(ValueError, match="Re z"):
            improper_laplace(bv, [-0.2 + 1.0j], self.cert())
        with pytest.raises(ValueError, match="Re z"):
            improper_laplace(bv, [0.0 + 1.0j], self.cert())

    def test_cap_refusal_carries_achievable_bound(self, monkeypatch):
        bv = exp_density()[0]
        monkeypatch.setattr(transform_module, "_T_CAP", 1e3)
        with pytest.raises(TruncationCapError) as info:
            improper_laplace(bv, [1e-6 + 0.0j], self.cert(), target_err=1e-8)
        err = info.value
        assert err.cap == 1e3
        assert err.achievable_bound > err.target
        assert "achievable" in str(err)

    @pytest.mark.parametrize("cutoff", [CutoffRule("infinite"), CutoffRule("constant", 1.0),
                                        CutoffRule("exp_t")], ids=lambda rule: rule.kind)
    @pytest.mark.parametrize("x0", [0.05, 0.1, 0.5, 1.0, 3.0])
    def test_certified_bound_covers_the_true_truncation_error(self, x0, cutoff):
        # A(s) = s: x ||G(x, t)|| = 1 - e^{-xt} <= 1, so C = 1 holds at every x0
        # and under every cutoff, and the transform is 1/z.  The tail bound once
        # read C (3 + |y|/x), without the 1/x of the line constant C/x: at x0 = 0.1
        # and z = 0.3 it certified 1.000e-08 where the true error is 1.111e-08
        z = np.asarray([complex(x, y) for x in (0.3, 0.7, 1.0, 2.0) for y in (0.0, 2.0)])
        point = improper_laplace(density_integrator("constant"), z,
                                 TauberianCertificate(C=1.0, x0=x0, R_rule=cutoff),
                                 target_err=1e-8)
        assert np.all(np.abs(point.value[:, 0] - 1.0 / z) <= point.truncation_bound)

    @pytest.mark.parametrize("tau", [1.0, 4.54])
    def test_certified_bound_holds_above_a_constant_cutoff(self, tau):
        # The unit jump at tau meets C = 1 at x0 = 1 under R(t) = 1 (x ||G|| = x e^{x(tau-t)}
        # after tau), and every check of verify passes; above the cutoff sup_t ||G(x, t)|| = 1,
        # far above C/x.  With C/x the tail bound at z = 4 once stopped at t* = 4.533, short of
        # the jump at 4.54: it certified 1e-8 where the true error e^{-18.16} is 1.3e-8
        bv = jump_integrator([(tau, 1.0)])
        cert = TauberianCertificate(C=1.0, x0=1.0, R_rule=CutoffRule("constant", 1.0))
        assert all(report.passed() for report in check_certificate(bv, cert))
        z = np.asarray([complex(x, y) for x in (1.5, 2.0, 4.0, 8.0, 17.0) for y in (0.0, 2.0)])
        point = improper_laplace(bv, z, cert, target_err=1e-8)
        assert np.all(np.abs(point.value[:, 0] - np.exp(-z * tau)) <= point.truncation_bound)


_abscissa = st.builds(complex, st.floats(0.2, 3.0), st.floats(-5.0, 5.0))


@st.composite
def array_cases(draw):
    """A 2-vector integrator of jumps, densities of all four kinds, or both; a certificate;
    and 0-8 points, some repeated.  The jumps lie before every t*, among the t*
    or past every t*; a large T makes every t* the same."""
    z = draw(st.lists(_abscissa, max_size=6))
    if z:
        z += draw(st.lists(st.sampled_from(z), max_size=2))
    cert = TauberianCertificate(C=draw(st.floats(0.5, 3.0)), x0=1.0,
                                T=draw(st.sampled_from((0.0, 25.0)) | st.floats(0.0, 10.0)))
    target = draw(st.sampled_from((1e-2, 1e-5, 1e-9)))
    t_stars = improper_laplace(BVFunction(2), np.asarray(z, dtype=complex), cert,
                               target).t_star.tolist()
    lo, hi = (min(t_stars), max(t_stars)) if t_stars else (0.0, 1.0)
    kind = draw(st.sampled_from(("jumps", "densities", "mixture")))
    taus = np.empty(0)
    if kind != "densities":
        where = draw(st.sampled_from(("before", "among", "past")))
        # jumps before every t*, among them, or past every t*
        a, b = {"before": (0.0, lo), "among": (0.0, 1.2 * hi),
                "past": (hi, hi + 5.0)}[where]
        fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
        taus = np.unique(a + (b - a) * np.asarray(fractions))
        taus = taus[taus < b] if where == "before" else taus
    sizes = draw_sizes(draw, taus.size)
    pieces = () if kind == "jumps" else draw_pieces(
        draw, starts=st.floats(0.0, 1.2 * hi), lengths=st.floats(0.05, 10.0) | st.just(math.inf),
        max_rate=0.5)
    return BVFunction(2, taus, sizes, pieces), cert, target, np.asarray(z, dtype=complex)


@settings(max_examples=60, deadline=None)
@given(array_cases())
def test_array_transform_matches_the_dense_reference(case):
    # point i of one array call is the one-element call, and the dense finite
    # transform stieltjes_integral(bv, -z_i, t*_i) within 1e-12 relative and an
    # absolute floor of 1e-15 times the variation summed
    bv, cert, target, z = case
    got = improper_laplace(bv, z, cert, target)
    assert got.value.shape == (z.size, 2)
    assert got.t_star.shape == got.truncation_bound.shape == z.shape
    for i, zi in enumerate(z):
        one = improper_laplace(bv, [zi], cert, target)
        assert got.t_star[i] == one.t_star[0]
        assert got.truncation_bound[i] == one.truncation_bound[0]
        want = stieltjes_integral(bv, -zi, one.t_star[0], 1e-12)
        floor = 1e-15 * total_variation(bv, one.t_star[0])
        gap = float(vector_norm(got.value[i] - want))
        assert gap <= 1e-12 * float(vector_norm(want)) + floor


def test_transform_of_no_points():
    bv = jump_integrator([(0.5, 1.0)])
    point = improper_laplace(bv, np.zeros(0, dtype=complex), TauberianCertificate(C=1.0, x0=1.0))
    assert point.value.shape == (0, 1)
    assert point.t_star.shape == point.truncation_bound.shape == (0,)


class TestArrayErrors:
    """An array call raises the one-element call's error for its first bad point, at its index."""

    bv = exp_density()[0]
    cert = TauberianCertificate(C=1.0, x0=1.0)

    @pytest.mark.parametrize("bad, error", [(-0.2 + 1.0j, ValueError), (0.0, ValueError),
                                            (1e-6, TruncationCapError)])
    def test_first_bad_point_is_named(self, bad, error):
        with pytest.raises(error) as one:
            improper_laplace(self.bv, [bad], self.cert, target_err=1e-8)
        z = np.asarray([1.0, 0.5 + 2.0j, bad, -1.0, 1e-7])
        with pytest.raises(error) as info:
            improper_laplace(self.bv, z, self.cert, target_err=1e-8)
        assert info.value.index == 2
        assert str(info.value) == str(one.value)

    def test_two_dimensional_points_are_refused(self):
        with pytest.raises(ValueError, match="1-d array"):
            improper_laplace(self.bv, np.ones((2, 2)), self.cert)


def test_certificate_validation():
    with pytest.raises(ValueError):
        TauberianCertificate(C=0.0, x0=1.0)
    with pytest.raises(ValueError):
        TauberianCertificate(C=-1.0, x0=1.0)
    with pytest.raises(ValueError):
        TauberianCertificate(C=1.0, x0=-1.0)
    with pytest.raises(ValueError):
        TauberianCertificate(C=1.0, x0=1.0, T=-2.0)
