"""Stieltjes integration against closed forms and structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauberian_lab import (
    BVFunction,
    DensityPiece,
    Integrand,
    NonFiniteIntegrandError,
    bounded_density_instance,
    stieltjes_integral,
    vector_norm,
    weighted_partial,
    weighted_partial_grid,
    weighted_tail_grid,
)
from tauberian_lab.bv import (_exp_segment, _jump_exp_sum, exp_partial_integral,
                              exp_tail_integral)


def jump_oracle(jumps, z, t):
    """Direct sum over jumps strictly before t; the independent reference."""
    return sum(size * np.exp(-z * tau) for tau, size in jumps if tau < t)


def exp_density_oracle(scale, rate, z, t):
    """int_0^t scale e^{(rate - z) s} ds in closed form."""
    d = rate - z
    if d == 0:
        return scale * t
    return scale * (np.exp(d * t) - 1.0) / d


class TestStieltjesClosedForms:
    def test_single_jump(self):
        bv = BVFunction.single_jump(3.0, 2.0)
        z = 1.5 + 0.7j
        got = stieltjes_integral(bv, Integrand.exponential(-z), 5.0).as_scalar()
        assert got == pytest.approx(2.0 * np.exp(-z * 3.0), rel=1e-14)
        # strictly-before convention: the jump at t itself is excluded
        at_tau = stieltjes_integral(bv, Integrand.exponential(-z), 3.0).as_scalar()
        assert at_tau == 0.0

    def test_random_jump_sets(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            taus = np.sort(rng.uniform(0.0, 10.0, n))
            taus += np.arange(n) * 1e-6  # enforce strict ordering
            sizes = rng.normal(size=n) + 1j * rng.normal(size=n)
            jumps = list(zip(taus, sizes))
            bv = BVFunction.from_jumps(jumps)
            z = complex(rng.uniform(0.1, 3.0), rng.uniform(-5.0, 5.0))
            t = rng.uniform(0.5, 12.0)
            got = stieltjes_integral(bv, Integrand.exponential(-z), t).as_scalar()
            want = jump_oracle(jumps, z, t)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_exponential_density(self, rng):
        for _ in range(20):
            rate = rng.uniform(-2.0, 0.5)
            scale = rng.uniform(0.2, 3.0)
            bv = BVFunction.from_density("exponential", scale=scale, rate=rate)
            z = complex(rng.uniform(0.1, 2.0), rng.uniform(-4.0, 4.0))
            t = rng.uniform(0.5, 8.0)
            got = stieltjes_integral(bv, Integrand.exponential(-z), t, 1e-12).as_scalar()
            want = exp_density_oracle(scale, rate, z, t)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_power_density(self):
        # dA = s^2 ds, phi = 1: integral is t^3 / 3
        bv = BVFunction.from_density("power", exponent=2.0)
        got = stieltjes_integral(bv, Integrand.constant(1.0), 2.0, 1e-12).as_scalar()
        assert got == pytest.approx(8.0 / 3.0, rel=1e-10)

    def test_finite_dirichlet_block(self):
        # jumps 1/n at log n for n <= 50, phi = e^{-zs}: sum n^{-z}/n
        n = np.arange(1, 51)
        bv = BVFunction.from_jumps([(math.log(k), 1.0 / k) for k in n])
        z = 0.8 + 1.3j
        got = stieltjes_integral(bv, Integrand.exponential(-z), 100.0).as_scalar()
        want = np.sum(n ** (-z - 1.0))
        assert got == pytest.approx(want, rel=1e-12)

    def test_mixed_jumps_and_density(self):
        piece = DensityPiece(0.0, math.inf, "exponential", (1.0,), rate=-1.0)
        bv = BVFunction.from_jumps([(1.0, 0.5)], pieces=(piece,))
        z = 1.0 + 0.0j
        t = 4.0
        got = stieltjes_integral(bv, Integrand.exponential(-z), t, 1e-12).as_scalar()
        want = 0.5 * math.exp(-1.0) + exp_density_oracle(1.0, -1.0, z, t)
        assert got == pytest.approx(want, rel=1e-10)


class TestValueAndVariation:
    def test_value_at_zero_is_zero(self):
        bv = BVFunction.from_jumps([(0.0, 1.0), (1.0, -0.5)])
        assert bv.value_at(0.0).norm() == 0.0

    def test_value_left_continuity(self):
        bv = BVFunction.single_jump(2.0, 1.0)
        assert bv.value_at(2.0).as_scalar() == 0.0
        assert bv.value_at(2.0 + 1e-9).as_scalar() == 1.0

    def test_exp_density_value(self):
        bv = BVFunction.from_density("exponential", rate=-1.0)
        assert bv.value_at(1.0).as_scalar() == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10)

    def test_total_variation_mixes_parts(self):
        piece = DensityPiece(0.0, 2.0, "constant", (1.0,))
        bv = BVFunction.from_jumps([(0.5, -3.0)], pieces=(piece,))
        # |jump| + int_0^2 1 ds, evaluated past both
        assert bv.total_variation(5.0) == pytest.approx(3.0 + 2.0, rel=1e-10)

    def test_total_variation_of_complex_densities(self):
        # |e^{(-0.1+3i)s}| = e^{-0.1 s}, whose integral over [0, 5) is 10 (1 - e^{-1/2})
        bv = BVFunction.from_density("exponential", rate=-0.1 + 3.0j)
        assert bv.total_variation(5.0) == pytest.approx(10.0 * (1.0 - math.exp(-0.5)), rel=1e-10)
        # the two unit-modulus halves of the cosine density add up piece by
        # piece, an upper bound on int_0^10 |cos s| ds
        cosine = bounded_density_instance("cosine").bv
        tv = cosine.total_variation(10.0)
        assert tv == pytest.approx(10.0, rel=1e-10)
        assert tv >= 6.0 + math.sin(10.0 - 3.0 * math.pi)

    def test_validation_rejects_bad_jumps(self):
        with pytest.raises(ValueError):
            BVFunction.from_jumps([(2.0, 1.0), (2.0, 1.0)])
        with pytest.raises(ValueError):
            BVFunction.from_jumps([(-1.0, 1.0)])
        with pytest.raises(ValueError):
            BVFunction.from_jumps([(0.0, math.nan)])

    def test_jump_at_zero_allowed(self):
        bv = BVFunction.from_jumps([(0.0, 1.0)])
        assert bv.value_at(0.5).as_scalar() == 1.0


@settings(max_examples=40, deadline=None)
@given(
    taus=st.lists(st.floats(0.0, 9.0), min_size=1, max_size=5, unique=True),
    sizes1=st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5),
    sizes2=st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5),
)
def test_linearity_in_the_integrator(taus, sizes1, sizes2):
    taus = sorted(taus)
    s1, s2 = sizes1[: len(taus)], sizes2[: len(taus)]
    phi = Integrand.exponential(-0.7 + 0.3j)
    t = 10.0
    a = stieltjes_integral(BVFunction.from_jumps(list(zip(taus, s1))), phi, t).as_scalar()
    b = stieltjes_integral(BVFunction.from_jumps(list(zip(taus, s2))), phi, t).as_scalar()
    combined = BVFunction.from_jumps([(tau, u + v) for tau, u, v in zip(taus, s1, s2)])
    both = stieltjes_integral(combined, phi, t).as_scalar()
    assert both == pytest.approx(a + b, rel=1e-12, abs=1e-12)


def test_integral_dominated_by_total_variation(rng):
    # |int phi dA| <= sup |phi| * TV for an oscillatory phi of unit magnitude
    taus = np.sort(rng.uniform(0.1, 6.0, 12))
    sizes = rng.normal(size=12)
    bv = BVFunction.from_jumps(list(zip(taus, sizes)))
    phi = Integrand.exponential(5.0j)
    val = float(stieltjes_integral(bv, phi, 10.0).norm())
    assert val <= bv.total_variation(10.0) + 1e-12


def test_narrow_bump_converges_to_jump():
    # constant density of mass 1 on [1, 1 + w) vs a unit jump at 1
    z = 0.9 + 1.1j
    target = np.exp(-z * 1.0)
    errs = []
    for w in (0.1, 0.01, 0.001):
        bv = BVFunction.from_density("constant", start=1.0, end=1.0 + w, scale=1.0 / w)
        got = stieltjes_integral(bv, Integrand.exponential(-z), 3.0, 1e-13).as_scalar()
        errs.append(abs(got - target))
    assert errs[0] > errs[1] > errs[2]
    # first-order convergence: each tenfold narrowing gains ~10x
    assert errs[0] / errs[1] > 5.0
    assert errs[1] / errs[2] > 5.0


class TestGridEvaluators:
    def test_partial_grid_matches_pointwise(self, rng):
        taus = np.sort(rng.uniform(0.0, 8.0, 30))
        taus += np.arange(30) * 1e-9
        sizes = rng.normal(size=30)
        bv = BVFunction.from_jumps(list(zip(taus, sizes)))
        z = 1.3 + 0.4j
        t_grid = np.linspace(0.1, 9.0, 40)
        vals = weighted_partial_grid(bv, z, t_grid, 1e-12)
        for i, t in enumerate(t_grid):
            # literal e^{-xt} sum size e^{z tau}, only safe at modest x t
            direct = math.exp(-z.real * t) * sum(
                s * np.exp(z * tau) for tau, s in zip(taus, sizes) if tau < t
            )
            assert vals[i, 0] == pytest.approx(direct, rel=1e-11, abs=1e-13)

    def test_partial_grid_survives_overflow_regime(self):
        # e^{-xt} int_0^t e^{xs} dA with x t = 2000: the unweighted integral
        # overflows doubles, the recurrence stays put
        bv = BVFunction.single_jump(1.0, 1.0)
        x = 200.0
        vals = weighted_partial_grid(bv, complex(x), np.asarray([1.001, 10.0]), 1e-12)
        assert np.all(np.isfinite(vals))
        assert vals[0, 0] == pytest.approx(math.exp(x * (1.0 - 1.001)), rel=1e-10)
        assert abs(vals[1, 0]) <= math.exp(-1000.0) + 1e-300

    def test_tail_grid_closed_form(self):
        # unit jump at T = 2: e^{xt} int_t^v e^{-zs} dA = e^{xt} e^{-z T} for t < T
        bv = BVFunction.single_jump(2.0, 1.0)
        z = complex(1.5, 3.0)
        t_grid = np.asarray([0.5, 1.0, 1.9])
        vals = weighted_tail_grid(bv, z, t_grid, v_max=10.0, quad_tol=1e-12)
        for i, t in enumerate(t_grid):
            want = np.exp(z.real * t) * np.exp(-z * 2.0)
            assert vals[i, 0] == pytest.approx(want, rel=1e-11)
        # the jump at tau = t belongs to the tail (the partial is strict)
        at_tau = weighted_tail_grid(bv, z, np.asarray([2.0]), v_max=10.0, quad_tol=1e-12)
        assert at_tau[0, 0] == pytest.approx(np.exp(z.real * 2.0) * np.exp(-z * 2.0), rel=1e-12)
        empty = weighted_tail_grid(bv, z, np.asarray([3.0]), v_max=10.0, quad_tol=1e-12)
        assert np.all(empty == 0)

    def test_weighted_partial_scalar_agrees_with_grid(self):
        bv = BVFunction.from_density("exponential", rate=-1.0)
        z = complex(0.8, -1.2)
        t = 3.0
        one = weighted_partial(bv, z, t, 1e-12)[0]
        grid = weighted_partial_grid(bv, z, np.asarray([t]), 1e-12)[0, 0]
        assert one == pytest.approx(grid, rel=1e-12)


class TestContourKernels:
    def test_exp_tail_closed_form(self):
        # density e^{-s}: int_t^inf e^{-z(s-t)} e^{-s} ds = e^{-t} / (z+1)
        bv = BVFunction.from_density("exponential", rate=-1.0)
        t = 2.0
        z = np.asarray([0.5 + 1.0j, 1.0 - 2.0j, 0.1 + 0.0j])
        got = exp_tail_integral(bv, z, t, 1e-12)[:, 0]
        want = np.exp(-t) / (z + 1.0)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_exp_tail_jumps(self):
        # jump at tau = 3, t = 1: one term e^{-z (tau - t)}
        bv = BVFunction.single_jump(3.0, 1.0)
        z = np.asarray([0.7 + 0.2j])
        got = exp_tail_integral(bv, z, 1.0, 1e-12)[0, 0]
        assert got == pytest.approx(np.exp(-z[0] * 2.0), rel=1e-12)

    def test_exp_tail_divergence_rejected(self):
        bv = BVFunction.from_density("exponential", rate=0.5)
        with pytest.raises(ValueError, match="diverge"):
            exp_tail_integral(bv, np.asarray([0.2 + 1.0j]), 1.0, 1e-12)

    def test_exp_partial_closed_form(self):
        # density e^{-s}: int_0^t e^{z(t-s)} e^{-s} ds = (e^{zt} - e^{-t}) / (z+1)
        bv = BVFunction.from_density("exponential", rate=-1.0)
        t = 2.0
        z = np.asarray([-0.5 + 1.0j, -0.3 + 2.0j, 0.0 + 0.7j])
        got = exp_partial_integral(bv, z, t, 1e-12)[:, 0]
        want = (np.exp(z * t) - np.exp(-t)) / (z + 1.0)
        np.testing.assert_allclose(got, want, rtol=1e-11)

    def test_exp_partial_domain(self):
        bv = BVFunction.from_density("exponential", rate=-1.0)
        with pytest.raises(ValueError, match="Re"):
            exp_partial_integral(bv, np.asarray([0.5 + 0.0j]), 1.0, 1e-12)

    def test_exp_segment_matches_direct(self):
        length = 0.37
        deltas = np.asarray([1e-3 + 0j, 1e-5 + 1e-5j, 0j, 2.0 - 1.0j])
        got = _exp_segment(deltas, length)
        for i, d in enumerate(deltas):
            want = length if d == 0 else (np.exp(d * length) - 1.0) / d
            assert got[i] == pytest.approx(want, rel=1e-11)


def dense_jump_sum(tau, sizes, z, t):
    """Reference for the jump-sum kernel: the dense node x jump sum.

    The exponent is formed in long double: in double, rounding z (tau - t)
    alone costs eps |z (tau - t)|, past the 64 eps allowed below once the
    phase reaches a few hundred radians.  Where long double is double this
    is the plain double sum.
    """
    arg = -np.asarray(z, dtype=np.clongdouble)[:, None] * (
        np.asarray(tau, dtype=np.longdouble)[None, :] - np.longdouble(t))
    return np.exp(arg).astype(complex) @ sizes


def assert_matches_dense(tau, sizes, z, t):
    """Kernel vs dense reference within its remainder plus 64 eps sum |s|."""
    got, bound = _jump_exp_sum(tau, sizes, z, t)
    # one node at a time keeps the 1e6-jump reference small
    want = np.zeros_like(got)
    for i in range(z.size):
        want[i] = dense_jump_sum(tau, sizes, z[i:i + 1], t)[0]
    allowed = bound + 64.0 * np.finfo(float).eps * float(np.sum(np.abs(sizes)))
    assert got.shape == (z.size, sizes.shape[1])
    assert float(np.max(np.abs(got - want), initial=0.0)) <= allowed
    return got, want


def arc(R, th0, th1, n):
    return R * np.exp(1j * np.linspace(th0, th1, n))


def alternating_jumps(n_max):
    n = np.arange(1, n_max + 1)
    sizes = (np.where(n % 2 == 1, 1.0, -1.0) / n).astype(complex).reshape(-1, 1)
    return np.log(n.astype(float)), sizes


class TestJumpExpSum:
    """The block-Taylor kernel against the dense node x jump sum."""

    @pytest.mark.parametrize("n_max, nodes", [(50_000, 124), (1_000_000, 9)])
    def test_alternating_series_tail_and_partial(self, n_max, nodes):
        tau, sizes = alternating_jumps(n_max)
        t, R = 3.0, 1.5
        k = int(np.searchsorted(tau, t))
        for sl, z in ((slice(k, None), arc(R, -math.pi / 2, math.pi / 2, nodes)),
                      (slice(0, k), arc(R, math.pi / 2, 3 * math.pi / 2, nodes))):
            got, want = assert_matches_dense(tau[sl], sizes[sl], z, t)
            assert float(np.max(np.abs(got - want))) <= 1e-13

    def test_random_complex_vector_sizes(self, rng):
        tau = np.sort(rng.uniform(0.0, 12.0, 400))
        sizes = rng.normal(size=(400, 2)) + 1j * rng.normal(size=(400, 2))
        t = 5.0
        k = int(np.searchsorted(tau, t))
        z = rng.uniform(0.0, 4.0, 60) + 1j * rng.uniform(-6.0, 6.0, 60)
        assert_matches_dense(tau[k:], sizes[k:], z, t)
        assert_matches_dense(tau[:k], sizes[:k], -z, t)

    def test_clusters_with_long_gaps(self, rng):
        # clusters 0.01 wide, 10 apart: most width-2/|z| blocks are empty
        tau = np.sort(np.concatenate([10.0 * c + rng.uniform(0.0, 0.01, 50) for c in range(10)]))
        sizes = rng.normal(size=(tau.size, 1)).astype(complex)
        z = arc(3.0, -math.pi / 2, math.pi / 2, 101)
        assert_matches_dense(tau, sizes, z, 0.0)

    def test_large_modulus_nodes(self, rng):
        tau = np.sort(rng.uniform(2.0, 8.0, 3000))
        sizes = (rng.normal(size=3000) + 1j * rng.normal(size=3000)).reshape(-1, 1)
        assert_matches_dense(tau, sizes, arc(50.0, -math.pi / 2, math.pi / 2, 200), 2.0)

    def test_junction_nodes_with_tiny_real_part(self):
        tau, sizes = alternating_jumps(2000)
        t, R = 3.0, 1.5
        k = int(np.searchsorted(tau, t))
        junction = np.asarray([1e-17 + 1j * R, 1e-17 - 1j * R])
        assert_matches_dense(tau[k:], sizes[k:], junction, t)
        assert_matches_dense(tau[:k], sizes[:k], -junction, t)

    def test_empty_nodes(self):
        tau, sizes = alternating_jumps(100)
        got, _ = assert_matches_dense(tau, sizes, np.zeros(0, dtype=complex), 0.0)
        assert got.shape == (0, 1)

    def test_zero_node_sums_the_sizes(self):
        tau, sizes = alternating_jumps(5000)
        got, _ = assert_matches_dense(tau, sizes, np.zeros(3, dtype=complex), 1.0)
        np.testing.assert_allclose(got, np.broadcast_to(sizes.sum(axis=0), got.shape),
                                   rtol=0, atol=1e-14)

    def test_single_jump_is_exact(self):
        z = np.asarray([0.0j, 0.7 + 0.2j, 40.0 - 30.0j, 1e-17 + 2.0j])
        got, _ = _jump_exp_sum(np.asarray([3.0]), np.asarray([[2.0 - 1.0j]]), z, 1.0)
        want = (2.0 - 1.0j) * np.exp(-z * 2.0)
        np.testing.assert_allclose(got[:, 0], want, rtol=1e-15, atol=0)

    def test_nonfinite_node_is_rejected(self):
        bv = BVFunction.from_jumps([(1.0, 1.0), (2.0, -0.5)])
        with pytest.raises(ValueError, match="jump-sum"):
            exp_tail_integral(bv, np.asarray([1.0 + 0j, complex(math.nan, 0.0)]), 0.5)

    def test_remainder_bound_meets_its_target(self):
        tau, sizes = alternating_jumps(1000)
        _, bound = _jump_exp_sum(tau, sizes, np.asarray([1.0 + 1.0j]), 0.0)
        assert 0.0 < bound <= 2.0 ** -60 * float(np.sum(np.abs(sizes)))


@settings(max_examples=40, deadline=None)
@given(
    taus=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=40, unique=True),
    t=st.floats(0.0, 30.0),
    rho=st.floats(0.0, 60.0),
    angles=st.lists(st.floats(-math.pi / 2, math.pi / 2), min_size=1, max_size=8),
)
@example(taus=[0.0], t=0.0, rho=2.2250738585e-313, angles=[0.0])  # subnormal |z|
# block phase Im(z)(c_b - t) ~ 272 rad: rounding it alone cost 1.3 x the allowance
@example(taus=[0.0, 0.015625], t=8.0, rho=34.0, angles=[1.5703125])
# phase ~ 280 rad: a double-precision reference was 1.6e-14 from the exact sum
@example(taus=[20.0], t=0.0, rho=14.0, angles=[1.5703125])
def test_jump_sum_matches_dense_in_both_directions(taus, t, rho, angles):
    tau = np.asarray(sorted(taus))
    sizes = np.cos(np.arange(tau.size) + 0.5).astype(complex).reshape(-1, 1)
    z = rho * np.exp(1j * np.asarray(angles))
    k = int(np.searchsorted(tau, t))
    assert_matches_dense(tau[k:], sizes[k:], z, t)   # tail: tau >= t, Re z >= 0
    assert_matches_dense(tau[:k], sizes[:k], -z, t)  # partial: tau < t, Re z <= 0


def test_nonfinite_integrand_error_names_location():
    bv = BVFunction.from_density("constant", start=0.0, end=10.0)
    with pytest.raises(NonFiniteIntegrandError) as info:
        stieltjes_integral(bv, Integrand.exponential(1000.0), 10.0, 1e-10)
    assert 0.0 <= info.value.s <= 10.0


def test_norm_kinds_agree_on_scalars():
    for kind in ("euclidean", "sup"):
        bv = BVFunction.single_jump(1.0, -2.0, norm_kind=kind)
        assert float(vector_norm(bv.jump_sizes[0], kind)) == 2.0
