"""Finite and improper transforms: closed forms, tail certificates, domain."""

import math

import numpy as np
import pytest

from tauberian_lab import (
    BVFunction,
    TauberianCertificate,
    TruncationCapError,
    finite_laplace,
    improper_laplace,
)
from tauberian_lab.oracles import eta


def test_finite_laplace_single_jump(rng):
    bv = BVFunction.single_jump(2.0, 1.0)
    for _ in range(20):
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-6.0, 6.0))
        t = rng.uniform(0.1, 10.0)
        want = np.exp(-z * 2.0) if t > 2.0 else 0.0
        assert finite_laplace(bv, z, t)[0] == pytest.approx(want, abs=1e-13)


def test_finite_laplace_exp_density(rng):
    bv = BVFunction.from_density("exponential", rate=-0.5)
    for _ in range(20):
        z = complex(rng.uniform(-1.0, 2.0), rng.uniform(-4.0, 4.0))
        t = rng.uniform(0.2, 6.0)
        d = -0.5 - z
        want = t if d == 0 else (np.exp(d * t) - 1.0) / d
        got = finite_laplace(bv, z, t, 1e-12)[0]
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_finite_laplace_at_zero_is_value():
    # f_t(0) recovers A(t)
    bv = BVFunction.from_jumps([(0.5, 1.0), (1.5, -0.25)])
    assert finite_laplace(bv, 0.0, 2.0)[0] == pytest.approx(0.75, rel=1e-14)


def test_conjugate_symmetry(rng):
    # real integrator: f(conj z) = conj f(z)
    bv = BVFunction.from_jumps(
        [(0.3, 1.0), (1.7, -0.6)],
        pieces=(),
    )
    for _ in range(10):
        z = complex(rng.uniform(0.1, 2.0), rng.uniform(0.1, 5.0))
        t = rng.uniform(1.0, 8.0)
        a = finite_laplace(bv, z, t)[0]
        b = finite_laplace(bv, z.conjugate(), t)[0]
        assert b == pytest.approx(a.conjugate(), rel=1e-13)


class TestImproper:
    def cert(self) -> TauberianCertificate:
        return TauberianCertificate(C=1.0, x0=1.0)

    def test_exp_density_limit(self):
        # int_0^inf e^{-zs} e^{-s} ds = 1/(z+1); at z = 1 this is 1/2
        bv = BVFunction.from_density("exponential", rate=-1.0)
        point = improper_laplace(bv, 1.0, self.cert(), target_err=1e-10)
        assert point.value[0] == pytest.approx(0.5, abs=2e-10)
        assert point.truncation_bound <= 1e-10

    def test_dirichlet_alternating_eta2(self):
        # jumps (-1)^{n+1}/n at log n, z = 1: sum (-1)^{n+1} n^{-2} = eta(2)
        n = np.arange(1, 200_001)
        sizes = np.where(n % 2 == 1, 1.0, -1.0) / n
        bv = BVFunction(dimension=1, jump_times=np.log(n.astype(float)),
                        jump_sizes=sizes.astype(complex).reshape(-1, 1))
        cert = TauberianCertificate(C=math.e, x0=1.0)
        point = improper_laplace(bv, 1.0, cert, target_err=1e-6)
        want = eta(2.0).real
        assert point.value[0].real == pytest.approx(want, abs=1e-6)
        assert want == pytest.approx(math.pi ** 2 / 12.0, abs=1e-13)

    def test_truncation_agreement_between_targets(self):
        # two evaluations must agree within the sum of their certified bounds
        bv = BVFunction.from_density("exponential", rate=-1.0)
        cert = self.cert()
        z = 0.7 + 0.9j
        for eps1, eps2 in ((1e-4, 1e-6), (1e-6, 1e-8), (1e-4, 1e-8)):
            p1 = improper_laplace(bv, z, cert, target_err=eps1, quad_tol=1e-13)
            p2 = improper_laplace(bv, z, cert, target_err=eps2, quad_tol=1e-13)
            gap = abs(p1.value[0] - p2.value[0])
            assert gap <= p1.truncation_bound + p2.truncation_bound + 1e-12

    def test_truncation_point_grows_with_oscillation(self):
        bv = BVFunction.from_density("exponential", rate=-1.0)
        cert = self.cert()
        slow = improper_laplace(bv, 1.0 + 0.0j, cert)
        fast = improper_laplace(bv, 1.0 + 40.0j, cert)
        assert fast.t_star > slow.t_star

    def test_domain_error_left_half_plane(self):
        bv = BVFunction.from_density("exponential", rate=-1.0)
        with pytest.raises(ValueError, match="Re z"):
            improper_laplace(bv, -0.2 + 1.0j, self.cert())
        with pytest.raises(ValueError, match="Re z"):
            improper_laplace(bv, 0.0 + 1.0j, self.cert())

    def test_cap_refusal_carries_achievable_bound(self):
        bv = BVFunction.from_density("exponential", rate=-1.0)
        with pytest.raises(TruncationCapError) as info:
            improper_laplace(bv, 1e-6 + 0.0j, self.cert(), target_err=1e-8, t_cap=1e4)
        err = info.value
        assert err.cap == 1e4
        assert err.achievable_bound > err.target
        assert "achievable" in str(err)

    def test_effective_constant_rescales_below_x0(self):
        cert = TauberianCertificate(C=2.0, x0=1.0)
        assert cert.effective_constant(1.0) == 2.0
        assert cert.effective_constant(4.0) == 2.0
        assert cert.effective_constant(0.25) == 8.0
        with pytest.raises(ValueError):
            cert.effective_constant(0.0)


def test_certificate_validation():
    with pytest.raises(ValueError):
        TauberianCertificate(C=0.0, x0=1.0)
    with pytest.raises(ValueError):
        TauberianCertificate(C=1.0, x0=-1.0)
    with pytest.raises(ValueError):
        TauberianCertificate(C=1.0, x0=1.0, T=-2.0)
