"""Stieltjes integration against closed forms and structural invariants."""

import math
import tracemalloc
import warnings

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
    finite_laplace,
    stieltjes_integral,
    vector_norm,
    weighted_partial,
    weighted_partial_grid,
    weighted_tail_grid,
)
from tauberian_lab import bv as bv_module
from tauberian_lab.bv import (_QUAD_LEAVES, QuadratureError, _exp_segment, _jump_exp_sum,
                              exp_partial_integral, exp_tail_integral,
                              gauss_legendre_panels, quad)


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
        got = stieltjes_integral(bv, Integrand.exponential(-z), 5.0)[0]
        assert got == pytest.approx(2.0 * np.exp(-z * 3.0), rel=1e-14)
        # strictly-before convention: the jump at t itself is excluded
        at_tau = stieltjes_integral(bv, Integrand.exponential(-z), 3.0)[0]
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
            got = stieltjes_integral(bv, Integrand.exponential(-z), t)[0]
            want = jump_oracle(jumps, z, t)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_exponential_density(self, rng):
        for _ in range(20):
            rate = rng.uniform(-2.0, 0.5)
            scale = rng.uniform(0.2, 3.0)
            bv = BVFunction.from_density("exponential", scale=scale, rate=rate)
            z = complex(rng.uniform(0.1, 2.0), rng.uniform(-4.0, 4.0))
            t = rng.uniform(0.5, 8.0)
            got = stieltjes_integral(bv, Integrand.exponential(-z), t, 1e-12)[0]
            want = exp_density_oracle(scale, rate, z, t)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_power_density(self):
        # dA = s^2 ds, phi = 1: integral is t^3 / 3
        bv = BVFunction.from_density("power", exponent=2.0)
        got = stieltjes_integral(bv, Integrand.constant(1.0), 2.0, 1e-12)[0]
        assert got == pytest.approx(8.0 / 3.0, rel=1e-10)

    def test_finite_dirichlet_block(self):
        # jumps 1/n at log n for n <= 50, phi = e^{-zs}: sum n^{-z}/n
        n = np.arange(1, 51)
        bv = BVFunction.from_jumps([(math.log(k), 1.0 / k) for k in n])
        z = 0.8 + 1.3j
        got = stieltjes_integral(bv, Integrand.exponential(-z), 100.0)[0]
        want = np.sum(n ** (-z - 1.0))
        assert got == pytest.approx(want, rel=1e-12)

    def test_mixed_jumps_and_density(self):
        piece = DensityPiece(0.0, math.inf, "exponential", (1.0,), rate=-1.0)
        bv = BVFunction.from_jumps([(1.0, 0.5)], pieces=(piece,))
        z = 1.0 + 0.0j
        t = 4.0
        got = stieltjes_integral(bv, Integrand.exponential(-z), t, 1e-12)[0]
        want = 0.5 * math.exp(-1.0) + exp_density_oracle(1.0, -1.0, z, t)
        assert got == pytest.approx(want, rel=1e-10)


class TestValueAndVariation:
    def test_value_at_zero_is_zero(self):
        bv = BVFunction.from_jumps([(0.0, 1.0), (1.0, -0.5)])
        assert vector_norm(bv.value_at(0.0), bv.norm_kind) == 0.0

    def test_value_left_continuity(self):
        bv = BVFunction.single_jump(2.0, 1.0)
        assert bv.value_at(2.0)[0] == 0.0
        assert bv.value_at(2.0 + 1e-9)[0] == 1.0

    def test_exp_density_value(self):
        bv = BVFunction.from_density("exponential", rate=-1.0)
        assert bv.value_at(1.0)[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10)

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

    def test_rate_zero_jump_sum_takes_no_exponentials(self, monkeypatch):
        # value_at once took exp of N complex zeros; np.full(idx, c) @ sizes is
        # the same sum, bit for bit
        n = np.arange(1, 2001)
        sizes = np.stack((np.cos(n), np.sin(n) * 1j), axis=1) / n[:, None]
        bv = BVFunction(2, np.log(n.astype(float)), sizes)
        monkeypatch.setattr(Integrand, "__call__", None)  # any exponential would raise
        for t in (0.5, 3.0, 100.0):
            idx = int(np.searchsorted(bv.jump_times, t))
            assert np.array_equal(bv.value_at(t), np.full(idx, 1.0 + 0j) @ sizes[:idx])
            got = stieltjes_integral(bv, Integrand.constant(2.0 - 1.0j), t)
            assert np.array_equal(got, np.full(idx, 2.0 - 1.0j) @ sizes[:idx])

    def test_jump_at_zero_allowed(self):
        bv = BVFunction.from_jumps([(0.0, 1.0)])
        assert bv.value_at(0.5)[0] == 1.0

    def test_nan_time_is_refused(self):
        # a nan t once passed every range test and gave the whole integrator:
        # value_at(nan) = [9], total_variation(nan) = 9; the sweeps and the
        # contour evaluators gave zeros, nan rows, no rows at all or, for
        # v_max = nan, the tail to infinity
        piece = DensityPiece(0.0, 3.0, "constant", (1.0,))
        bv = BVFunction.from_jumps([(1.0, 1.0), (2.0, 5.0)], pieces=(piece,))
        dens = BVFunction.from_density("exponential", rate=-1.0)
        jumps = BVFunction.from_jumps([(0.5, 1.0), (1.0, -2.0)])
        for evaluate in (bv.value_at, bv.total_variation,
                         lambda t: stieltjes_integral(bv, Integrand.exponential(-1.0), t),
                         lambda t: finite_laplace(bv, 1.0, t),
                         lambda t: weighted_partial(dens, 1.0, t),
                         lambda t: weighted_partial_grid(dens, 1.0, np.asarray([0.0, t])),
                         lambda t: weighted_tail_grid(dens, 1.0, np.asarray([0.0, t]), 5.0),
                         lambda t: weighted_tail_grid(jumps, 1.0, np.asarray([0.0, 1.0]), t),
                         lambda t: exp_tail_integral(jumps, np.asarray([1.0 + 0j]), t),
                         lambda t: exp_partial_integral(jumps, np.asarray([-1.0 + 0j]), t)):
            with pytest.raises(ValueError, match="t = nan is not a time"):
                evaluate(math.nan)


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
    a = stieltjes_integral(BVFunction.from_jumps(list(zip(taus, s1))), phi, t)[0]
    b = stieltjes_integral(BVFunction.from_jumps(list(zip(taus, s2))), phi, t)[0]
    combined = BVFunction.from_jumps([(tau, u + v) for tau, u, v in zip(taus, s1, s2)])
    both = stieltjes_integral(combined, phi, t)[0]
    assert both == pytest.approx(a + b, rel=1e-12, abs=1e-12)


def test_integral_dominated_by_total_variation(rng):
    # |int phi dA| <= sup |phi| * TV for an oscillatory phi of unit magnitude
    taus = np.sort(rng.uniform(0.1, 6.0, 12))
    sizes = rng.normal(size=12)
    bv = BVFunction.from_jumps(list(zip(taus, sizes)))
    phi = Integrand.exponential(5.0j)
    val = float(vector_norm(stieltjes_integral(bv, phi, 10.0), bv.norm_kind))
    assert val <= bv.total_variation(10.0) + 1e-12


def test_narrow_bump_converges_to_jump():
    # constant density of mass 1 on [1, 1 + w) vs a unit jump at 1
    z = 0.9 + 1.1j
    target = np.exp(-z * 1.0)
    errs = []
    for w in (0.1, 0.01, 0.001):
        bv = BVFunction.from_density("constant", start=1.0, end=1.0 + w, scale=1.0 / w)
        got = stieltjes_integral(bv, Integrand.exponential(-z), 3.0, 1e-13)[0]
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

    @pytest.mark.parametrize("exponent, want", [(1.0, 4.0), (-0.5, math.sqrt(2.0 * math.pi))])
    def test_growing_base_under_a_decaying_weight(self, exponent, want):
        # int_0^inf s^a e^{0.5 s} e^{-s} ds = Gamma(a + 1) / 0.5^{a + 1}: formed
        # apart, e^{0.5 s} overflowed (at s = 1871.5 for a = 1) where the
        # weight had already underflowed
        bv = BVFunction.from_density("damped_power", rate=0.5, exponent=exponent)
        got = exp_tail_integral(bv, np.asarray([1.0 + 0j]), 0.0, 1e-13)[0, 0]
        assert abs(got - want) <= 1e-12 * want

    def test_exp_partial_closed_form(self):
        # density e^{-s}: int_0^t e^{z(t-s)} e^{-s} ds = (e^{zt} - e^{-t}) / (z+1)
        bv = BVFunction.from_density("exponential", rate=-1.0)
        t = 2.0
        z = np.asarray([-0.5 + 1.0j, -0.3 + 2.0j, 0.0 + 0.7j])
        got = exp_partial_integral(bv, z, t, 1e-12)[:, 0]
        want = (np.exp(z * t) - np.exp(-t)) / (z + 1.0)
        np.testing.assert_allclose(got, want, rtol=1e-11)

    def test_exp_partial_anchors_a_rising_piece_at_t(self):
        # at Re(r - z) = 63 the closed form anchored at 0 formed e^{63 * 12},
        # which overflowed, where the value itself is about e^{-12} / 63
        bv = BVFunction.from_density("exponential", rate=-1.0)
        t = 12.0
        z = np.concatenate((-64.0 + 1j * np.linspace(-64.0, 64.0, 9), [-1.0, -0.5 + 3.0j, 2.0j]))
        got = exp_partial_integral(bv, z, t, 1e-12)[:, 0]
        want = bv_module._density_integrals(bv.pieces[0],
                                            lambda s, owner: z[owner, None] * (t - s),
                                            np.zeros(z.size), np.full(z.size, t), 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12)

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
        # just past |delta L| = 1e-4, where e^{delta L} - 1 in double lost 4.4e-13
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.prec = 200
        deltas = np.asarray([1.2e-4, -1.5e-4, 1.1e-4j, 3e-4, 1e-3]) / length
        got = _exp_segment(deltas, length)
        for i, d in enumerate(deltas):
            dm = mpmath.mpc(d.real, d.imag)
            want = complex(mpmath.expm1(dm * length) / dm)
            assert abs(got[i] - want) <= 1e-14 * abs(want)

    def test_exp_segment_at_subnormal_rates(self):
        # dividing by a subnormal complex delta overflows to inf + nan j; a
        # sweep at z = 1e-310 i over a constant piece raised NonFiniteIntegrandError
        deltas = np.asarray([1e-310j, 2.2250738585e-313 + 0j, 1e-320 + 1e-320j, 1e-300j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(_exp_segment(deltas, 3.0) == 3.0)
            bv = BVFunction.from_density("constant", end=2.0)
            got = weighted_partial_grid(bv, 1e-310j, [1.0, 3.0])[:, 0]
        assert got == pytest.approx([1.0, 2.0], rel=1e-15)


def mixed_integrator():
    """2-vector integrator: jumps (one at 2.0) plus all four density kinds on finite pieces."""
    pieces = (
        DensityPiece(0.0, 3.0, "constant", (0.5, -0.2j)),
        DensityPiece(3.5, 4.5, "exponential", (1.0, 0.3), rate=-0.4),
        DensityPiece(0.5, 5.0, "power", (0.2, 0.1 + 0.1j), exponent=1.5),
        DensityPiece(2.0, 6.0, "damped_power", (-0.3j, 0.4), rate=-0.2, exponent=0.5),
    )
    jumps = [(0.0, (1.0, 0.5)), (1.5, (-0.5j, 0.25)), (2.0, (0.7, -0.1 + 0.2j)),
             (4.0, (-0.2, 1.0j)), (5.5, (0.3 + 0.3j, -0.6))]
    return BVFunction.from_jumps(jumps, pieces=pieces)


class TestRangeAndSweepAgainstStieltjes:
    """The contour pair and the grid pair against literal Stieltjes integrals."""

    def test_tail_plus_partial_is_the_whole_transform(self):
        # on Re z = 0 both contour evaluators are defined, and together they
        # cover [0, inf): T(iy) + P(iy) = e^{iyt} int_0^inf e^{-iys} dA(s)
        bv = mixed_integrator()
        z = 1j * np.linspace(-3.0, 3.0, 7)
        for t in (1.0, 2.0, 3.0, 5.0):
            both = exp_tail_integral(bv, z, t, 1e-13) + exp_partial_integral(bv, z, t, 1e-13)
            for i, zi in enumerate(z):
                want = np.exp(zi * t) * stieltjes_integral(
                    bv, Integrand.exponential(-zi), 10.0, 1e-13)
                assert float(np.max(np.abs(both[i] - want))) <= 1e-12

    def test_grids_match_literal_integrals(self):
        bv = mixed_integrator()
        t_grid = np.asarray([0.0, 0.25, 1.0, 1.5, 2.0, 2.7, 3.5, 4.0, 5.0, 6.5])
        v_max = 7.0
        for z in (0.3 + 1.1j, 0.7j, 1.0 - 2.0j):
            x = z.real
            partial = weighted_partial_grid(bv, z, t_grid, 1e-13)
            tail = weighted_tail_grid(bv, z, t_grid, v_max, 1e-13)
            whole = stieltjes_integral(bv, Integrand.exponential(-z), v_max, 1e-13)
            for j, tj in enumerate(t_grid):
                want_partial = math.exp(-x * tj) * stieltjes_integral(
                    bv, Integrand.exponential(z), tj, 1e-13)
                want_tail = math.exp(x * tj) * (whole - stieltjes_integral(
                    bv, Integrand.exponential(-z), tj, 1e-13))
                assert float(np.max(np.abs(partial[j] - want_partial))) <= 1e-12
                assert float(np.max(np.abs(tail[j] - want_tail))) <= 1e-12

    def test_jump_at_a_grid_point_belongs_to_the_tail(self):
        bv = BVFunction.single_jump(2.0, 1.0)
        z = complex(0.5, 1.0)
        t_grid = np.asarray([1.0, 2.0, 3.0])
        partial = weighted_partial_grid(bv, z, t_grid, 1e-12)[:, 0]
        tail = weighted_tail_grid(bv, z, t_grid, v_max=4.0, quad_tol=1e-12)[:, 0]
        # upward: the jump enters after t = 2, not at it
        assert partial[0] == 0 and partial[1] == 0
        assert partial[2] == pytest.approx(np.exp(2.0 * z - 3.0 * z.real), rel=1e-14)
        # downward: the jump enters at t = 2, and not above it
        assert tail[2] == 0
        assert tail[1] == pytest.approx(np.exp(2.0 * z.real - 2.0 * z), rel=1e-14)
        assert tail[0] == pytest.approx(np.exp(z.real - 2.0 * z), rel=1e-14)


def gauss_legendre(a, b, crate, integrand, max_panels=4096):
    """int_a^b integrand(s) ds by composite 16-point Gauss-Legendre, for e^{crate s}-like integrands.

    One panel per 1.5 units of growth or phase of e^{crate s}; None when that
    needs more than max_panels panels.
    """
    k = max(1.0, abs(crate.real), abs(crate.imag))
    panels = max(math.ceil((b - a) * k / 1.5), 1)
    if panels > max_panels:
        return None
    s, w = gauss_legendre_panels(a, b, panels)
    return complex(np.sum(w * integrand(s)))


def loop_sweep(bv, c, points, start, quad_tol):
    """Reference for the weighted sweep: the row-by-row recurrence.

    Row j rescales the previous row by e^{Re(c) (t_{j-1} - t_j)} and adds the
    jumps and density between the two points: jumps by a direct sum, constant
    and exponential pieces by composite Gauss-Legendre (quad where that needs
    too many panels), the other pieces by quad, one row at a time.  Weights
    are formed as e^{Re(c) (s - t_j) + i Im(c) s}; the form c s - Re(c) t_j
    rounds Re(c) t_j and was up to 5.7e-13 of the total variation off at
    Re(c) = 1000.
    """
    xr, y = c.real, c.imag
    reach = bv_module._NEGLIGIBLE_LOG / abs(xr) if xr else math.inf
    seg_reach = (bv_module._NEGLIGIBLE_LOG + 10.0) / abs(xr) if xr else math.inf
    times, sizes = bv.jump_times, bv.jump_sizes
    out = np.empty((points.size, bv.dimension), dtype=complex)
    acc = np.zeros(bv.dimension, dtype=complex)
    prev = start
    for j, tj in enumerate(points):
        acc = acc * math.exp(xr * (prev - tj))
        i0 = max(np.searchsorted(times, min(prev, tj)), np.searchsorted(times, tj - reach))
        i1 = min(np.searchsorted(times, max(prev, tj)),
                 np.searchsorted(times, tj + reach, side="right"))
        if i1 > i0:
            acc = acc + np.exp(xr * (times[i0:i1] - tj) + 1j * y * times[i0:i1]) @ sizes[i0:i1]
        end = min(max(prev, tj - seg_reach), tj + seg_reach)
        for piece in bv.pieces:
            lo, hi = max(piece.start, min(end, tj)), min(piece.end, max(end, tj))
            if hi <= lo:
                continue
            val = None
            if piece.smooth_exponential:
                rest = 1j * y + piece.rate
                val = gauss_legendre(lo, hi, c + piece.rate,
                                     lambda s: np.exp(xr * (s - tj) + rest * s))
            if val is None:
                val = bv_module._density_integrals(
                    piece, lambda s, owner: xr * (s - tj) + 1j * y * s,
                    [lo], [hi], quad_tol)[0]
            acc = acc + piece.scale_array() * val
        out[j] = acc
        prev = tj
    return out


SWEEP_RATES = (0.0, 1e-3, 1.0, 80.0, 1000.0)
_unit = st.floats(-1.0, 1.0)


@st.composite
def sweep_cases(draw):
    """A 2-vector integrator with jumps (some on grid points) and every density kind,
    a grid with repeated points and a rate c."""
    grid = draw(st.lists(st.floats(0.0, 6.0), min_size=1, max_size=25))
    grid = np.sort(grid + draw(st.lists(st.sampled_from(grid), max_size=4)))
    taus = draw(st.lists(st.floats(0.0, 7.0), max_size=10))
    taus = np.unique(taus + draw(st.lists(st.sampled_from(list(grid)), max_size=4)))
    parts = draw(st.lists(_unit, min_size=4 * taus.size, max_size=4 * taus.size))
    sizes = np.asarray(parts, dtype=float).reshape(-1, 2, 2) @ np.asarray([1.0, 1.0j])
    pieces = []
    for kind in draw(st.lists(st.sampled_from(bv_module.DENSITY_KINDS), max_size=4)):
        a = draw(st.floats(0.0, 5.0))
        rate = 0.0
        if kind in ("exponential", "damped_power"):
            rate = complex(draw(st.floats(-1.5, 0.0 if kind == "damped_power" else 1.0)),
                           draw(st.floats(-2.0, 2.0)))
        exponent = draw(st.floats(-0.9 if a > 0 else -0.5, 2.0))
        pieces.append(DensityPiece(a, a + draw(st.floats(0.05, 3.0)), kind,
                                   tuple(complex(draw(_unit), draw(_unit)) for _ in range(2)),
                                   rate, exponent))
    bv = BVFunction(2, taus, sizes, tuple(pieces))
    c = complex(draw(st.sampled_from(SWEEP_RATES)), draw(st.sampled_from((0.0, 0.7, -3.0))))
    return bv, grid, c


@settings(max_examples=60, deadline=None)
@given(sweep_cases())
# a subnormal row: dividing complex rows by a subnormal power of two gave inf
@example(case=(BVFunction.from_jumps([], 2, pieces=(
    DensityPiece(0.0, 1.0, "constant", (0j, 2.2250738585e-313j)),)), np.asarray([0.0]), 0j))
def test_sweep_matches_the_row_loop(case):
    bv, grid, c = case
    v_max = 8.0
    allowed = 1e-13 * bv.total_variation(v_max + 1.0)
    partial = weighted_partial_grid(bv, c, grid, 1e-13)
    assert np.max(np.abs(partial - loop_sweep(bv, c, grid, 0.0, 1e-13))) <= allowed
    tail = weighted_tail_grid(bv, c, grid, v_max, 1e-13)
    want = loop_sweep(bv, -c, grid[::-1], v_max, 1e-13)[::-1]
    assert np.max(np.abs(tail - want)) <= allowed


@st.composite
def batch_cases(draw):
    """A 2-vector integrator of jumps, or of jumps and all four density kinds, a grid
    (maybe empty, maybe before the first jump), a tail start (maybe past the last
    jump) and 1-6 abscissas, real or complex."""
    taus = np.unique(draw(st.lists(st.floats(0.5, 7.0), min_size=1, max_size=10)))
    parts = draw(st.lists(_unit, min_size=4 * taus.size, max_size=4 * taus.size))
    sizes = np.asarray(parts, dtype=float).reshape(-1, 2, 2) @ np.asarray([1.0, 1.0j])
    pieces = []
    if draw(st.booleans()):
        for kind in bv_module.DENSITY_KINDS:
            a = draw(st.floats(0.0, 5.0))
            rate = 0.0
            if kind in ("exponential", "damped_power"):
                rate = complex(draw(st.floats(-1.5, 0.0 if kind == "damped_power" else 1.0)),
                               draw(st.floats(-2.0, 2.0)))
            exponent = draw(st.floats(-0.9 if a > 0 else -0.5, 2.0))
            pieces.append(DensityPiece(a, a + draw(st.floats(0.05, 3.0)), kind,
                                       tuple(complex(draw(_unit), draw(_unit)) for _ in range(2)),
                                       rate, exponent))
    grid = np.sort(draw(st.lists(st.floats(0.0, 8.0), max_size=20)))
    if draw(st.booleans()):
        grid = grid * (taus[0] / 8.0)  # every point at or before the first jump
    v_max = max(float(grid[-1]) if grid.size else 0.0, draw(st.floats(0.0, 9.0)))
    z = draw(st.lists(st.builds(complex, st.sampled_from(SWEEP_RATES) | st.floats(0.0, 50.0),
                                st.sampled_from((0.0, -3.0)) | st.floats(-5.0, 5.0)),
                      min_size=1, max_size=6))
    return BVFunction(2, taus, sizes, tuple(pieces)), grid, v_max, np.asarray(z)


@settings(max_examples=60, deadline=None)
@given(batch_cases())
def test_one_call_sweeps_every_abscissa(case):
    # row i of an array call is the scalar call at z[i], bitwise: the weights are
    # formed by the same expressions, and quad gives each interval the same
    # value whatever intervals share its call
    bv, grid, v_max, z = case
    partial = weighted_partial_grid(bv, z, grid, 1e-12)
    tail = weighted_tail_grid(bv, z, grid, v_max, 1e-12)
    assert partial.shape == tail.shape == (z.size, grid.size, 2)
    for i, zi in enumerate(z):
        assert np.array_equal(partial[i], weighted_partial_grid(bv, zi, grid, 1e-12))
        assert np.array_equal(tail[i], weighted_tail_grid(bv, zi, grid, v_max, 1e-12))


def test_sweep_of_no_abscissas():
    bv = mixed_integrator()
    grid = np.linspace(0.0, 6.0, 7)
    assert weighted_partial_grid(bv, np.zeros(0), grid).shape == (0, 7, 2)
    assert weighted_tail_grid(bv, np.zeros(0), grid, 8.0).shape == (0, 7, 2)
    with pytest.raises(ValueError, match="1-d array"):
        weighted_partial_grid(bv, np.ones((2, 2)), grid)
    with pytest.raises(ValueError, match=r"Re\(z\) >= 0"):
        weighted_tail_grid(bv, np.asarray([1.0, -1.0]), grid, 8.0)


class TestSweepRange:
    def test_huge_jumps_do_not_overflow_the_scan(self):
        # 400 jumps of 1e300 in [0, 2] at x = 1000: the rows are about 1e300, so
        # a block scaled by e^{x (t - t_block)} with no rescaling returns inf
        bv = BVFunction(1, np.linspace(0.0, 2.0, 400), np.full((400, 1), 1e300 + 0j))
        grid = np.linspace(0.0, 2.5, 2000)
        got = weighted_partial_grid(bv, 1000.0, grid)
        want = loop_sweep(bv, 1000.0 + 0j, grid, 0.0, 1e-10)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got)) == pytest.approx(1.006e300, rel=1e-3)
        assert np.max(np.abs(got - want)) <= 1e-13 * 400 * 1e300

    def test_overflow_raises_instead_of_returning_a_number(self):
        # each row holds one finite jump, but their sum at t = 0.5 is 2.1e308
        bv = BVFunction(1, np.asarray([0.0, 0.001]), np.full((2, 1), 1.7e308 + 0j))
        with pytest.raises(NonFiniteIntegrandError, match="weighted sweep"):
            weighted_partial_grid(bv, 1.0, np.asarray([0.0005, 0.5]))

    def test_jumps_are_taken_in_bounded_chunks(self, monkeypatch):
        # chunks of 7 jumps split rows between chunks; the sums must not change
        tau, sizes = alternating_jumps(300)
        bv = BVFunction(2, tau, np.hstack((sizes, 1j * sizes[::-1])))
        grid = np.sort(np.concatenate((np.linspace(0.0, 6.0, 50), tau[::40])))
        for z in (0.5, 3.0 + 2.0j):
            whole = weighted_partial_grid(bv, z, grid), weighted_tail_grid(bv, z, grid, 7.0)
            monkeypatch.setattr(bv_module, "_MAX_BLOCK_ELEMENTS", 8 * 2 * 7)
            chunked = weighted_partial_grid(bv, z, grid), weighted_tail_grid(bv, z, grid, 7.0)
            monkeypatch.undo()
            for got, want in zip(chunked, whole):
                assert np.max(np.abs(got - want)) <= 1e-15 * float(np.sum(np.abs(sizes)))


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

    def test_temporaries_stay_near_three_jump_arrays(self):
        # the moment pass once held the jumps' offsets, cells, two moment terms
        # and the remainder's two complex temporaries at once: about 4.1 complex
        # arrays of the jumps' length
        tau, sizes = alternating_jumps(50_000)
        z = 1.5 * np.exp(1j * np.linspace(-1.5, 1.5, 200))
        tracemalloc.start()
        try:
            _jump_exp_sum(tau, sizes, z, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * sizes.nbytes

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


_slope_part = st.tuples(st.floats(-3.0, 3.0), st.floats(-5.0, 5.0))
# quad loses its accuracy where the value nears the subnormal range
_coefficient_part = st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(-1.0, -1e-6))


@st.composite
def smooth_piece_cases(draw):
    """A constant or exponential piece, a log-weight of one of the three shapes the
    callers pass, with its slope, ranges of it, some maybe unbounded, and for
    phi.rate s an Integrand coefficient (None otherwise)."""
    kind = draw(st.sampled_from(("constant", "exponential")))
    rate = complex(*draw(_slope_part)) if kind == "exponential" else 0.0
    c = np.asarray([complex(*p) for p in draw(st.lists(_slope_part, min_size=1, max_size=4))])
    t = draw(st.floats(0.0, 8.0))
    shape = draw(st.sampled_from(("stieltjes", "sweep", "contour")))
    coefficient = None
    if shape == "stieltjes":  # phi.rate s, one rate for every range
        c = slope = np.full(c.size, c[0])
        coefficient = complex(draw(_coefficient_part), draw(_coefficient_part))

        def log_weight(s, owner):
            return c[0] * s
    elif shape == "sweep":  # Re(c)(s - t) + i Im(c) s
        slope = c

        def log_weight(s, owner):
            return c.real[owner, None] * (s - t) + 1j * c.imag[owner, None] * s
    else:  # z (t - s)
        slope = -c

        def log_weight(s, owner):
            return c[owner, None] * (t - s)
    d = slope + rate
    lo = np.asarray(draw(st.lists(st.floats(0.0, 4.0), min_size=c.size, max_size=c.size)))
    # quad loses its accuracy on subnormal lengths, and on [lo, inf) gives up
    # where |Im d| passes about 30 |Re d|
    fraction = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))
    decays = (d.real < -0.1) & (np.abs(d.imag) < -20.0 * d.real)
    hi = np.asarray([math.inf if decays[i] and draw(st.booleans())
                     else lo[i] + 5.0 * draw(fraction) for i in range(c.size)])
    piece = DensityPiece(0.0, math.inf, kind, (1.0,), rate)
    return piece, log_weight, slope, lo, hi, coefficient


@settings(max_examples=80, deadline=None)
@given(smooth_piece_cases())
def test_smooth_pieces_take_the_closed_form(case):
    piece, log_weight, slope, lo, hi, coefficient = case
    got = bv_module._piece_integrals(piece, log_weight, slope, lo, hi, 1e-12)
    with pytest.MonkeyPatch.context() as patch:  # a reference ten times tighter than the check
        patch.setattr(bv_module, "_QUAD_REL_TOL", 1e-13)
        want = bv_module._density_integrals(piece, log_weight, lo, hi, 0.0)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    if coefficient is not None:  # the piece from lo[0] against the Integrand up to hi[0]
        bv = BVFunction.from_density(piece.kind, start=lo[0], rate=piece.rate)
        got = stieltjes_integral(bv, Integrand(slope[0], coefficient), hi[0], 1e-12)[0]
        assert abs(got - coefficient * want[0]) <= 1e-12 * abs(coefficient * want[0])


def test_long_oscillating_piece_takes_the_closed_form():
    # e^{(-0.01 + 3i) s} on [0, 1e5) has about 48k periods: the fixed Gauss-Legendre
    # path needed 2e5 panels and its quad fallback gave up with a QuadratureError
    length = 1e5
    bv = BVFunction.from_density("exponential", rate=-0.01, end=length)
    q = -0.01 + 3j
    got = stieltjes_integral(bv, Integrand.exponential(3j), length)[0]
    assert got == pytest.approx((np.exp(q * length) - 1.0) / q, rel=1e-12)


@pytest.mark.parametrize("kind, rate, phi_rate", [("constant", 0.0, 0.0),
                                                  ("constant", 0.0, 2j),
                                                  ("exponential", 0.5, -0.5 + 1j),
                                                  ("exponential", 0.25, 0.0)])
def test_unbounded_smooth_piece_that_does_not_decay_diverges(kind, rate, phi_rate):
    bv = BVFunction.from_density(kind, start=1.0, rate=rate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"integral over \[1, inf\) diverges") as info:
            stieltjes_integral(bv, Integrand.exponential(phi_rate), math.inf)
    assert not isinstance(info.value, NonFiniteIntegrandError)


@pytest.mark.parametrize("exponent, converges", [(-2.0, True), (-1.0, False), (-0.5, False)])
def test_unbounded_power_piece_converges_only_below_one_over_s(exponent, converges):
    # int_1^inf s^a ds = -1 / (a + 1) for a < -1: no exponential decay is needed
    bv = BVFunction.from_density("power", start=1.0, exponent=exponent)
    if converges:
        assert bv.value_at(math.inf)[0] == pytest.approx(-1.0 / (exponent + 1.0), rel=1e-12)
    else:
        with pytest.raises(ValueError, match=r"integral over \[1, inf\) diverges"):
            bv.value_at(math.inf)


def test_nonfinite_integrand_error_names_location():
    bv = BVFunction.from_density("constant", start=0.0, end=10.0)
    with pytest.raises(NonFiniteIntegrandError) as info:
        stieltjes_integral(bv, Integrand.exponential(1000.0), 10.0, 1e-10)
    assert 0.0 <= info.value.s <= 10.0


def test_norm_kinds_agree_on_scalars():
    for kind in ("euclidean", "sup"):
        bv = BVFunction.single_jump(1.0, -2.0, norm_kind=kind)
        assert float(vector_norm(bv.jump_sizes[0], kind)) == 2.0


def test_density_rate_only_where_the_base_uses_it():
    # constant and power bases ignore rate; a rate there once leaked into some
    # evaluators and not others (value_at(1) = 1.297 but total_variation(1) = 1)
    for kind in ("constant", "power"):
        with pytest.raises(ValueError, match="takes no rate"):
            DensityPiece(0.0, 1.0, kind, (1.0,), rate=0.5)
    for kind in ("exponential", "damped_power"):
        assert DensityPiece(0.0, 1.0, kind, (1.0,), rate=0.5).rate == 0.5


SINGULAR_EXPONENTS = (-0.5, -0.9, -0.99)


class TestSingularExponents:
    """Densities s^a with -1 < a < 0, singular at 0, against closed forms."""

    @pytest.mark.parametrize("a", SINGULAR_EXPONENTS)
    def test_power_on_the_unit_interval(self, a):
        bv = BVFunction.from_density("power", exponent=a, end=1.0)
        got = stieltjes_integral(bv, Integrand.constant(1.0), 1.0, 1e-12)[0]
        assert abs(got - 1.0 / (a + 1.0)) <= 1e-10 / (a + 1.0)
        assert abs(bv.total_variation(1.0) - 1.0 / (a + 1.0)) <= 1e-10 / (a + 1.0)

    @pytest.mark.parametrize("a", SINGULAR_EXPONENTS)
    def test_damped_power_laplace_transform(self, a):
        # int_0^inf s^a e^{-s} e^{-zs} ds = Gamma(a+1) / (z+1)^{a+1}; the part
        # past 60 is below e^-90
        z = 0.5 + 2.0j
        bv = BVFunction.from_density("damped_power", exponent=a, rate=-1.0)
        got = stieltjes_integral(bv, Integrand.exponential(-z), 60.0, 1e-12)[0]
        want = math.gamma(a + 1.0) / (z + 1.0) ** (a + 1.0)
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_grids_against_literal_integrals(self):
        bv = BVFunction.from_density("power", exponent=-0.5, end=5.0, scale=(1.0, 0.5j))
        t_grid = np.asarray([0.0, 0.25, 1.0, 2.5, 4.0, 6.0])
        z = 0.3 + 1.1j
        partial = weighted_partial_grid(bv, z, t_grid, 1e-13)
        tail = weighted_tail_grid(bv, z, t_grid, 6.0, 1e-13)
        whole = stieltjes_integral(bv, Integrand.exponential(-z), 6.0, 1e-13)

        def gap(got, want):
            return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)

        for j, tj in enumerate(t_grid):
            want_partial = math.exp(-z.real * tj) * stieltjes_integral(
                bv, Integrand.exponential(z), tj, 1e-13)
            want_tail = math.exp(z.real * tj) * (whole - stieltjes_integral(
                bv, Integrand.exponential(-z), tj, 1e-13))
            if tj > 0:
                assert gap(partial[j], want_partial) <= 1e-10
            if tj < 5.0:
                assert gap(tail[j], want_tail) <= 1e-10
        # [0, 0) and [6, 6) are empty, and the density ends at 5
        assert np.all(partial[0] == 0) and np.all(tail[-1] == 0)

    @pytest.mark.parametrize("a", SINGULAR_EXPONENTS)
    def test_contour_tail_over_an_unbounded_piece(self, a):
        # [0, inf) in u = s^{a+1}, then mapped onto [0, 1): both substitutions at once
        z = np.asarray([0.5 + 2.0j, 1.0, 3.0j, 0.01 - 40.0j])
        bv = BVFunction.from_density("damped_power", exponent=a, rate=-1.0)
        got = exp_tail_integral(bv, z, 0.0, 1e-12)[:, 0]
        want = np.asarray([math.gamma(a + 1.0) / (zi + 1.0) ** (a + 1.0) for zi in z])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10


class TestAdaptiveQuadrature:
    def test_many_intervals_at_once(self, rng):
        # int e^{k_i s} over [lo_i, hi_i), a different k and range per interval
        n = 300
        k = rng.uniform(-30.0, 5.0, n) + 1j * rng.uniform(-200.0, 200.0, n)
        lo = rng.uniform(0.0, 2.0, n)
        hi = lo + rng.uniform(1e-3, 3.0, n)
        values = quad(lambda s, owner: np.exp(k[owner, None] * s), lo, hi, 1e-13)
        want = (np.exp(k * hi) - np.exp(k * lo)) / k
        assert values.shape == (n,)
        assert np.max(np.abs(values - want) / np.maximum(np.abs(want), 1.0)) <= 1e-12

    def test_unbounded_interval(self):
        values = quad(lambda s, owner: np.exp(-s) * np.cos(s), [0.0, 2.0], [math.inf] * 2, 1e-14)
        want = [0.5, math.exp(-2.0) * (math.cos(2.0) - math.sin(2.0)) / 2.0]
        assert values == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_nonfinite_values_are_refused(self):
        # a nan estimate would never compare above the tolerance
        with pytest.raises(NonFiniteIntegrandError) as info:
            quad(lambda s, owner: np.where(s > 0.7, np.nan, 1.0), [0.0], [1.0], 1e-10)
        assert info.value.s > 0.7

    def test_no_intervals(self):
        values = quad(lambda s, owner: s, np.empty(0), np.empty(0), 1e-10)
        assert values.shape == (0,)

    def test_an_interval_gets_the_same_value_alone(self, rng):
        # a matmul may round a row by the product's size (numpy takes a one-row
        # product as a dot); quad's row sums must give a lone interval's leaf
        # the value it gets among others
        n = 64
        k = rng.uniform(-3.0, 1.0, n) + 1j * rng.uniform(-5.0, 5.0, n)
        lo = rng.uniform(0.0, 2.0, n)
        hi = lo + rng.uniform(0.1, 2.0, n)
        whole = quad(lambda s, owner: np.exp(k[owner, None] * s) * np.sqrt(s + 1.0), lo, hi,
                     1e-10)
        for i in range(n):
            alone = quad(lambda s, owner: np.exp(k[i] * s) * np.sqrt(s + 1.0), lo[i:i + 1],
                         hi[i:i + 1], 1e-10)
            assert alone[0] == whole[i], i

    def test_budget_exhaustion_names_the_interval(self):
        # the first interval is smooth; the second holds about 240k periods,
        # more than 400 subintervals can resolve
        with pytest.raises(QuadratureError, match=r"on \[0\.5, 2\)") as info:
            quad(lambda s, owner: np.where(owner[:, None] == 1, np.sin(1e6 * s), s),
                 [0.0, 0.5], [1.0, 2.0], 1e-12)
        assert info.value.index == 1

    def test_many_intervals_are_taken_in_bounded_slices(self, monkeypatch):
        # 60 oscillating intervals of up to ~130 periods each; with room for 5
        # full-budget intervals per slice no call of f may see more nodes, and
        # the values, owners and budget errors must match one unsliced call
        n = 60
        k = np.linspace(50.0, 400.0, n)
        lo, hi = np.linspace(0.0, 1.0, n), np.linspace(1.0, 3.0, n)
        seen = []

        def f(s, owner):
            seen.append(s.size)
            return np.exp(1j * k[owner, None] * s) * np.sqrt(s + 1.0)

        whole = quad(f, lo, hi, 1e-12)
        assert max(seen) > 15 * _QUAD_LEAVES * 5
        seen.clear()
        monkeypatch.setattr(bv_module, "_MAX_BLOCK_ELEMENTS", 15 * _QUAD_LEAVES * 5)
        sliced = quad(f, lo, hi, 1e-12)
        assert max(seen) <= 15 * _QUAD_LEAVES * 5
        assert np.array_equal(sliced, whole)
        with pytest.raises(QuadratureError) as info:
            quad(lambda s, owner: np.sin(np.where(owner[:, None] == 40, 1e6, 1.0) * s), lo, hi,
                 1e-12)
        assert info.value.index == 40
        assert f"on [{lo[40]:g}, {hi[40]:g})" in str(info.value)


def test_unresolved_oscillation_raises_instead_of_returning_a_number():
    # e^{2000 i s} s^{1/2} on [0, 200) has about 64k periods: no 400-leaf
    # quadrature resolves it, so it must fail and say where
    bv = BVFunction.from_density("power", exponent=0.5, end=200.0)
    with pytest.raises(ArithmeticError) as info:
        stieltjes_integral(bv, Integrand.exponential(2e3j), 200.0)
    assert "[0, 200)" in str(info.value) and "'power'" in str(info.value)
