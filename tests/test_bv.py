"""Stieltjes integration against closed forms and structural invariants."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauberian_lab import bv as bv_module
from tauberian_lab import verify as verify_module
from tauberian_lab.bv import (_QUAD_LEAVES, BVFunction, DensityPiece, NonFiniteIntegrandError,
                              QuadratureError, _exp_segment, _jump_exp_sum, exp_partial_integral,
                              exp_tail_integral, gauss_legendre_panels, jump_sum_remainder, quad,
                              stieltjes_integral, weighted_partial_grid, weighted_tail_grid)
from tauberian_lab.dirichlet import build_instance
from tauberian_lab.transform import TauberianCertificate, improper_laplace
from tauberian_lab.vectors import vector_norm
from tauberian_lab.verify import check_certificate

from exact import (alternating_jumps, chunk_rows, dense_jump_sum, density_integrator,
                   dirichlet_range_sum, draw_piece, draw_pieces, draw_sizes, exp_density,
                   exp_integrals, exp_partial, jump_integrator, loop_sweep, mixed_integrator,
                   plain_jumps, power_series, scan_one, total_variation)


class TestStieltjesClosedForms:
    def test_single_jump(self):
        bv = jump_integrator([(3.0, 2.0)])
        z = 1.5 + 0.7j
        got = stieltjes_integral(bv, -z, 5.0)[0]
        assert got == pytest.approx(2.0 * np.exp(-z * 3.0), rel=1e-14)
        # strictly-before convention: the jump at t itself is excluded
        at_tau = stieltjes_integral(bv, -z, 3.0)[0]
        assert at_tau == 0.0

    def test_random_jump_sets(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            taus = np.sort(rng.uniform(0.0, 10.0, n))
            taus += np.arange(n) * 1e-6  # enforce strict ordering
            sizes = rng.normal(size=n) + 1j * rng.normal(size=n)
            jumps = list(zip(taus, sizes))
            bv = jump_integrator(jumps)
            z = complex(rng.uniform(0.1, 3.0), rng.uniform(-5.0, 5.0))
            t = rng.uniform(0.5, 12.0)
            got = stieltjes_integral(bv, -z, t)[0]
            want = dense_jump_sum(taus[taus < t], sizes[taus < t], [z], 0.0)[0]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_exponential_density(self, rng):
        for _ in range(20):
            rate = rng.uniform(-2.0, 0.5)
            scale = rng.uniform(0.2, 3.0)
            bv = density_integrator("exponential", scale=scale, rate=rate)
            z = complex(rng.uniform(0.1, 2.0), rng.uniform(-4.0, 4.0))
            t = rng.uniform(0.5, 8.0)
            got = stieltjes_integral(bv, -z, t, 1e-12)[0]
            want = scale * exp_partial(rate, z, t)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_power_density(self):
        # dA = s^2 ds at rate 0: the integral is t^3 / 3
        bv = density_integrator("power", exponent=2.0)
        got = stieltjes_integral(bv, 0.0, 2.0, 1e-12)[0]
        assert got == pytest.approx(8.0 / 3.0, rel=1e-10)

    def test_finite_dirichlet_block(self):
        # jumps 1/n at log n for n <= 50, at rate -z: sum n^{-z}/n
        n = np.arange(1, 51)
        bv = jump_integrator([(math.log(k), 1.0 / k) for k in n])
        z = 0.8 + 1.3j
        got = stieltjes_integral(bv, -z, 100.0)[0]
        want = np.sum(n ** (-z - 1.0))
        assert got == pytest.approx(want, rel=1e-12)

    def test_mixed_jumps_and_density(self):
        piece = DensityPiece(0.0, math.inf, "exponential", (1.0,), rate=-1.0)
        bv = jump_integrator([(1.0, 0.5)], pieces=(piece,))
        z = 1.0 + 0.0j
        t = 4.0
        got = stieltjes_integral(bv, -z, t, 1e-12)[0]
        want = 0.5 * math.exp(-1.0) + exp_partial(-1.0, z, t)
        assert got == pytest.approx(want, rel=1e-10)


class TestValueAndVariation:
    def test_value_at_zero_is_zero(self):
        bv = jump_integrator([(0.0, 1.0), (1.0, -0.5)])
        assert vector_norm(bv.value_at(0.0), bv.norm_kind) == 0.0

    def test_value_left_continuity(self):
        bv = jump_integrator([(2.0, 1.0)])
        assert bv.value_at(2.0)[0] == 0.0
        assert bv.value_at(2.0 + 1e-9)[0] == 1.0

    def test_exp_density_value(self):
        bv = exp_density()[0]
        assert bv.value_at(1.0)[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10)

    def test_total_variation_mixes_parts(self):
        piece = DensityPiece(0.0, 2.0, "constant", (1.0,))
        bv = jump_integrator([(0.5, -3.0)], pieces=(piece,))
        # |jump| + int_0^2 1 ds, evaluated past both
        assert total_variation(bv, 5.0) == pytest.approx(3.0 + 2.0, rel=1e-10)

    def test_total_variation_of_complex_densities(self):
        # |e^{(-0.1+3i)s}| = e^{-0.1 s}, whose integral over [0, 5) is 10 (1 - e^{-1/2})
        bv = density_integrator("exponential", rate=-0.1 + 3.0j)
        assert total_variation(bv, 5.0) == pytest.approx(10.0 * (1.0 - math.exp(-0.5)), rel=1e-10)
        # the two unit-modulus halves of the cosine density add up piece by
        # piece, an upper bound on int_0^10 |cos s| ds
        cosine = BVFunction(1, pieces=tuple(
            DensityPiece(0.0, math.inf, "exponential", (0.5,), rate) for rate in (1j, -1j)))
        tv = total_variation(cosine, 10.0)
        assert tv == pytest.approx(10.0, rel=1e-10)
        assert tv >= 6.0 + math.sin(10.0 - 3.0 * math.pi)

    @pytest.mark.parametrize("piece", [
        DensityPiece(0.5, 4.0, "constant", (1.0 + 1.0j, 0.5)),
        DensityPiece(0.3, math.inf, "exponential", (2.0, -1.0j), -0.7 + 2.0j),
        DensityPiece(0.0, 5.0, "exponential", (0.5, 0.5), 0.9),
        DensityPiece(0.0, 3.0, "power", (1.0, 1.0j), exponent=1.5),
        DensityPiece(0.0, 3.0, "power", (1.0, 0.2), exponent=-0.5),
        DensityPiece(0.2, 3.0, "power", (0.3, 1.0), exponent=-1.0),
        DensityPiece(0.2, math.inf, "power", (0.3, 1.0), exponent=-2.5),
        DensityPiece(0.0, 8.0, "damped_power", (1.0, 1.0), -1.0, 2.0),
        DensityPiece(0.3, 8.0, "damped_power", (1.0j, 0.1), -0.5 + 1.0j, -0.5),
        DensityPiece(1.0, 4.0, "damped_power", (0.4, 0.4), 0.5, 1.0),
    ], ids=lambda piece: piece.kind)
    @pytest.mark.parametrize("norm_kind", ["euclidean", "sup"])
    def test_variation_bound_bounds_total_variation(self, piece, norm_kind):
        # closed forms and no quad: above total_variation at every t, and within
        # 1e-11 of it where the kind has a closed form for int |base|
        bv = BVFunction(2, np.asarray([0.1, 2.0]), np.asarray([[1.0, -2.0j], [0.5, 0.5]]),
                        (piece,), norm_kind)
        for t in (0.05, 0.2, 1.0, 2.5, 10.0):
            bound, tv = bv.variation_bound(t), total_variation(bv, t)
            assert bound >= tv
            if piece.kind != "damped_power":
                assert bound <= tv * (1.0 + 1e-11)

    def test_variation_of_tiny_and_huge_values(self):
        # the squares of a 1e-283 or 1e300 entry underflow or overflow in the
        # euclidean norm: total_variation read 0 (or inf) for such an integrator
        for scale in (3.9e-283, 2.2e-313, 1e300):
            piece = DensityPiece(0.0, 1.0, "constant", (scale + 0j, 0j))
            bv = BVFunction(2, np.asarray([0.5]), np.asarray([[0j, scale * 1j]]), (piece,))
            assert total_variation(bv, 2.0) == pytest.approx(2.0 * scale, rel=1e-15)
            assert bv.variation_bound(2.0) == pytest.approx(2.0 * scale, rel=1e-11)

    def test_validation_rejects_bad_jumps(self):
        for times, sizes in (([2.0, 2.0], [[1.0], [1.0]]), ([-1.0], [[1.0]]),
                             ([0.0], [[math.nan]]),
                             ([1.0, 2.0], [1.0, 1.0])):  # (n,) sizes, not (n, dimension)
            with pytest.raises(ValueError):
                BVFunction(1, np.asarray(times), np.asarray(sizes, dtype=complex))

    @pytest.mark.parametrize("table", [np.ones(2), np.ones((0, 1)), np.ones((3, 2))])
    def test_validation_rejects_a_table_of_another_shape(self, table):
        with pytest.raises(ValueError, match="coefficient table must be"):
            BVFunction(1, np.asarray([0.0]), np.ones((1, 1)), table=table)

    def test_a_vector_integrator_without_jumps_needs_no_jump_arrays(self):
        # the default jump_sizes was (0, 1) whatever the dimension, so a 2-vector density
        # with no jumps was refused as "jump arrays must be (n,) times with (n, dimension) sizes"
        bv = BVFunction(2, pieces=(DensityPiece(0.0, 1.0, "constant", (1.0, 0.0)),))
        assert bv.jump_sizes.shape == (0, 2)
        assert np.array_equal(bv.value_at(2.0), [1.0, 0.0])

    @pytest.mark.parametrize("size", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_validation_rejects_a_non_finite_density_scale(self, size):
        # a nan scale once loaded, and verify then failed inside the weighted sweep
        with pytest.raises(ValueError, match="density scale must be finite"):
            DensityPiece(0.0, 1.0, "constant", (1.0, size))

    def test_rate_zero_jump_sum_takes_no_exponentials(self, monkeypatch):
        # value_at once took exp of N complex zeros; np.full(idx, 1 + 0j) @ sizes is
        # the same sum, bit for bit
        n = np.arange(1, 2001)
        sizes = np.stack((np.cos(n), np.sin(n) * 1j), axis=1) / n[:, None]
        bv = BVFunction(2, np.log(n.astype(float)), sizes)
        monkeypatch.setattr(bv_module.np, "exp", None)  # any exponential would raise
        for t in (0.5, 3.0, 100.0):
            idx = int(np.searchsorted(bv.jump_times, t))
            want = np.full(idx, 1.0 + 0j) @ sizes[:idx]
            assert np.array_equal(bv.value_at(t), want)
            assert np.array_equal(stieltjes_integral(bv, 0.0, t), want)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_stieltjes_integral_refuses_a_tolerance_that_is_not_finite(self, tol):
        # handed on to quad, which refuses it: such a tolerance would pass
        # every interval after one Kronrod pass
        bv = density_integrator("power", start=0.0, end=2.0, exponent=0.5)
        with pytest.raises(ValueError, match="quadrature tolerance"):
            stieltjes_integral(bv, 0.0, 1.5, tol)

    def test_jump_at_zero_allowed(self):
        bv = jump_integrator([(0.0, 1.0)])
        assert bv.value_at(0.5)[0] == 1.0

    def test_nan_time_is_refused(self):
        # a nan t once passed every range test and gave the whole integrator:
        # value_at(nan) = [9] and a variation of 9; the sweeps and the
        # contour evaluators gave zeros, nan rows, no rows at all or, for
        # v_max = nan, the tail to infinity
        piece = DensityPiece(0.0, 3.0, "constant", (1.0,))
        bv = jump_integrator([(1.0, 1.0), (2.0, 5.0)], pieces=(piece,))
        dens = exp_density()[0]
        jumps = jump_integrator([(0.5, 1.0), (1.0, -2.0)])
        for evaluate in (bv.value_at, bv.variation_bound,
                         lambda t: stieltjes_integral(bv, -1.0, t),
                         lambda t: weighted_partial_grid(dens, [1.0], np.asarray([t])),
                         lambda t: weighted_partial_grid(dens, [1.0], np.asarray([0.0, t])),
                         lambda t: weighted_tail_grid(dens, [1.0], np.asarray([0.0, t]), 5.0),
                         lambda t: weighted_tail_grid(jumps, [1.0], np.asarray([0.0, 1.0]), t),
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
    rate = -0.7 + 0.3j
    t = 10.0
    a = stieltjes_integral(jump_integrator(list(zip(taus, s1))), rate, t)[0]
    b = stieltjes_integral(jump_integrator(list(zip(taus, s2))), rate, t)[0]
    combined = jump_integrator([(tau, u + v) for tau, u, v in zip(taus, s1, s2)])
    both = stieltjes_integral(combined, rate, t)[0]
    assert both == pytest.approx(a + b, rel=1e-12, abs=1e-12)


def test_integral_dominated_by_total_variation(rng):
    # |int e^{5is} dA| <= TV: the integrand is oscillatory, of unit magnitude
    taus = np.sort(rng.uniform(0.1, 6.0, 12))
    sizes = rng.normal(size=12)
    bv = jump_integrator(list(zip(taus, sizes)))
    val = float(vector_norm(stieltjes_integral(bv, 5.0j, 10.0), bv.norm_kind))
    assert val <= total_variation(bv, 10.0) + 1e-12


def test_narrow_bump_converges_to_jump():
    # constant density of mass 1 on [1, 1 + w) vs a unit jump at 1
    z = 0.9 + 1.1j
    target = np.exp(-z * 1.0)
    errs = []
    for w in (0.1, 0.01, 0.001):
        bv = density_integrator("constant", start=1.0, end=1.0 + w, scale=1.0 / w)
        got = stieltjes_integral(bv, -z, 3.0, 1e-13)[0]
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
        bv = jump_integrator(list(zip(taus, sizes)))
        z = 1.3 + 0.4j
        t_grid = np.linspace(0.1, 9.0, 40)
        vals = weighted_partial_grid(bv, [z], t_grid, 1e-12)[0]
        for i, t in enumerate(t_grid):
            # literal e^{-xt} sum size e^{z tau}, only safe at modest x t
            direct = math.exp(-z.real * t) * sum(
                s * np.exp(z * tau) for tau, s in zip(taus, sizes) if tau < t
            )
            assert vals[i, 0] == pytest.approx(direct, rel=1e-11, abs=1e-13)

    def test_partial_grid_survives_overflow_regime(self):
        # e^{-xt} int_0^t e^{xs} dA with x t = 2000: the unweighted integral
        # overflows doubles, the recurrence stays put
        bv = jump_integrator([(1.0, 1.0)])
        x = 200.0
        vals = weighted_partial_grid(bv, [x], np.asarray([1.001, 10.0]), 1e-12)[0]
        assert np.all(np.isfinite(vals))
        assert vals[0, 0] == pytest.approx(math.exp(x * (1.0 - 1.001)), rel=1e-10)
        assert abs(vals[1, 0]) <= math.exp(-1000.0) + 1e-300

    def test_tail_grid_closed_form(self):
        # unit jump at T = 2: e^{xt} int_t^v e^{-zs} dA = e^{xt} e^{-z T} for t < T
        bv = jump_integrator([(2.0, 1.0)])
        z = complex(1.5, 3.0)
        t_grid = np.asarray([0.5, 1.0, 1.9])
        vals = weighted_tail_grid(bv, [z], t_grid, v_max=10.0, quad_tol=1e-12)[0]
        for i, t in enumerate(t_grid):
            want = np.exp(z.real * t) * np.exp(-z * 2.0)
            assert vals[i, 0] == pytest.approx(want, rel=1e-11)
        # the jump at tau = t belongs to the tail (the partial is strict)
        at_tau = weighted_tail_grid(bv, [z], np.asarray([2.0]), v_max=10.0, quad_tol=1e-12)[0]
        assert at_tau[0, 0] == pytest.approx(np.exp(z.real * 2.0) * np.exp(-z * 2.0), rel=1e-12)
        empty = weighted_tail_grid(bv, [z], np.asarray([3.0]), v_max=10.0, quad_tol=1e-12)[0]
        assert np.all(empty == 0)



class TestContourKernels:
    def test_exp_tail_closed_form(self):
        # density e^{-s}: int_t^inf e^{-z(s-t)} e^{-s} ds = e^{-t} / (z+1)
        bv = exp_density()[0]
        t = 2.0
        z = np.asarray([0.5 + 1.0j, 1.0 - 2.0j, 0.1 + 0.0j])
        got = exp_tail_integral(bv, z, t, 1e-12)[:, 0]
        want = np.exp(-t) / (z + 1.0)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_exp_tail_jumps(self):
        # jump at tau = 3, t = 1: one term e^{-z (tau - t)}
        bv = jump_integrator([(3.0, 1.0)])
        z = np.asarray([0.7 + 0.2j])
        got = exp_tail_integral(bv, z, 1.0, 1e-12)[0, 0]
        assert got == pytest.approx(np.exp(-z[0] * 2.0), rel=1e-12)

    def test_exp_tail_divergence_rejected(self):
        bv = density_integrator("exponential", rate=0.5)
        with pytest.raises(ValueError, match="diverge"):
            exp_tail_integral(bv, np.asarray([0.2 + 1.0j]), 1.0, 1e-12)

    @pytest.mark.parametrize("exponent, want", [(1.0, 4.0), (-0.5, math.sqrt(2.0 * math.pi))])
    def test_growing_base_under_a_decaying_weight(self, exponent, want):
        # int_0^inf s^a e^{0.5 s} e^{-s} ds = Gamma(a + 1) / 0.5^{a + 1}: formed
        # apart, e^{0.5 s} overflowed (at s = 1871.5 for a = 1) where the
        # weight had already underflowed
        bv = density_integrator("damped_power", rate=0.5, exponent=exponent)
        got = exp_tail_integral(bv, np.asarray([1.0 + 0j]), 0.0, 1e-13)[0, 0]
        assert abs(got - want) <= 1e-12 * want

    def test_exp_partial_closed_form(self):
        # density e^{-s}: int_0^t e^{z(t-s)} e^{-s} ds = (e^{zt} - e^{-t}) / (z+1)
        bv = exp_density()[0]
        t = 2.0
        z = np.asarray([-0.5 + 1.0j, -0.3 + 2.0j, 0.0 + 0.7j])
        got = exp_partial_integral(bv, z, t, 1e-12)[:, 0]
        want = (np.exp(z * t) - np.exp(-t)) / (z + 1.0)
        np.testing.assert_allclose(got, want, rtol=1e-11)

    def test_exp_partial_anchors_a_rising_piece_at_t(self):
        # at Re(r - z) = 63 the closed form anchored at 0 formed e^{63 * 12},
        # which overflowed, where the value itself is about e^{-12} / 63
        bv = exp_density()[0]
        t = 12.0
        z = np.concatenate((-64.0 + 1j * np.linspace(-64.0, 64.0, 9), [-1.0, -0.5 + 3.0j, 2.0j]))
        got = exp_partial_integral(bv, z, t, 1e-12)[:, 0]
        want = bv_module._density_integrals(bv.pieces[0],
                                            lambda s, owner: z[owner, None] * (t - s),
                                            np.zeros(z.size), np.full(z.size, t), 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_exp_partial_domain(self):
        bv = exp_density()[0]
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
            bv = density_integrator("constant", end=2.0)
            got = weighted_partial_grid(bv, [1e-310j], [1.0, 3.0])[0, :, 0]
        assert got == pytest.approx([1.0, 2.0], rel=1e-15)


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
                    bv, -zi, 10.0, 1e-13)
                assert float(np.max(np.abs(both[i] - want))) <= 1e-12

    def test_grids_match_literal_integrals(self):
        bv = mixed_integrator()
        t_grid = np.asarray([0.0, 0.25, 1.0, 1.5, 2.0, 2.7, 3.5, 4.0, 5.0, 6.5])
        v_max = 7.0
        for z in (0.3 + 1.1j, 0.7j, 1.0 - 2.0j):
            x = z.real
            partial = weighted_partial_grid(bv, [z], t_grid, 1e-13)[0]
            tail = weighted_tail_grid(bv, [z], t_grid, v_max, 1e-13)[0]
            whole = stieltjes_integral(bv, -z, v_max, 1e-13)
            for j, tj in enumerate(t_grid):
                want_partial = math.exp(-x * tj) * stieltjes_integral(
                    bv, z, tj, 1e-13)
                want_tail = math.exp(x * tj) * (whole - stieltjes_integral(
                    bv, -z, tj, 1e-13))
                assert float(np.max(np.abs(partial[j] - want_partial))) <= 1e-12
                assert float(np.max(np.abs(tail[j] - want_tail))) <= 1e-12

    def test_jump_at_a_grid_point_belongs_to_the_tail(self):
        bv = jump_integrator([(2.0, 1.0)])
        z = complex(0.5, 1.0)
        t_grid = np.asarray([1.0, 2.0, 3.0])
        partial = weighted_partial_grid(bv, [z], t_grid, 1e-12)[0, :, 0]
        tail = weighted_tail_grid(bv, [z], t_grid, v_max=4.0, quad_tol=1e-12)[0, :, 0]
        # upward: the jump enters after t = 2, not at it
        assert partial[0] == 0 and partial[1] == 0
        assert partial[2] == pytest.approx(np.exp(2.0 * z - 3.0 * z.real), rel=1e-14)
        # downward: the jump enters at t = 2, and not above it
        assert tail[2] == 0
        assert tail[1] == pytest.approx(np.exp(2.0 * z.real - 2.0 * z), rel=1e-14)
        assert tail[0] == pytest.approx(np.exp(z.real - 2.0 * z), rel=1e-14)


SWEEP_RATES = (0.0, 1e-3, 1.0, 80.0, 1000.0)


@st.composite
def sweep_cases(draw):
    """A 2-vector integrator with jumps (some on grid points) and every density kind,
    a grid with repeated points and a rate c."""
    grid = draw(st.lists(st.floats(0.0, 6.0), min_size=1, max_size=25))
    grid = np.sort(grid + draw(st.lists(st.sampled_from(grid), max_size=4)))
    taus = draw(st.lists(st.floats(0.0, 7.0), max_size=10))
    taus = np.unique(taus + draw(st.lists(st.sampled_from(list(grid)), max_size=4)))
    sizes = draw_sizes(draw, taus.size)
    kinds = draw(st.lists(st.sampled_from(bv_module.DENSITY_KINDS), max_size=4))
    bv = BVFunction(2, taus, sizes, tuple(draw_piece(draw, kind) for kind in kinds))
    c = complex(draw(st.sampled_from(SWEEP_RATES)), draw(st.sampled_from((0.0, 0.7, -3.0))))
    return bv, grid, c


@settings(max_examples=60, deadline=None)
@given(sweep_cases())
# a subnormal row: dividing complex rows by a subnormal power of two gave inf
@example(case=(BVFunction(2, pieces=(
    DensityPiece(0.0, 1.0, "constant", (0j, 2.2250738585e-313j)),)), np.asarray([0.0]), 0j))
def test_sweep_matches_the_row_loop(case):
    bv, grid, c = case
    v_max = 8.0
    allowed = 1e-13 * total_variation(bv, v_max + 1.0)
    partial = weighted_partial_grid(bv, [c], grid, 1e-13)[0]
    assert np.max(np.abs(partial - loop_sweep(bv, c, grid, 0.0, 1e-13))) <= allowed
    tail = weighted_tail_grid(bv, [c], grid, v_max, 1e-13)[0]
    want = loop_sweep(bv, -c, grid[::-1], v_max, 1e-13)[::-1]
    assert np.max(np.abs(tail - want)) <= allowed


@st.composite
def batch_cases(draw):
    """A 2-vector integrator of jumps, or of jumps and all four density kinds, a grid
    (maybe empty, maybe before the first jump), a tail start (maybe past the last
    jump) and 1-6 abscissas, real or complex."""
    taus = np.unique(draw(st.lists(st.floats(0.5, 7.0), min_size=1, max_size=10)))
    sizes = draw_sizes(draw, taus.size)
    pieces = draw_pieces(draw) if draw(st.booleans()) else ()
    grid = np.sort(draw(st.lists(st.floats(0.0, 8.0), max_size=20)))
    if draw(st.booleans()):
        grid = grid * (taus[0] / 8.0)  # every point at or before the first jump
    v_max = max(float(grid[-1]) if grid.size else 0.0, draw(st.floats(0.0, 9.0)))
    z = draw(st.lists(st.builds(complex, st.sampled_from(SWEEP_RATES) | st.floats(0.0, 50.0),
                                st.sampled_from((0.0, -3.0)) | st.floats(-5.0, 5.0)),
                      min_size=1, max_size=6))
    return BVFunction(2, taus, sizes, pieces), grid, v_max, np.asarray(z)


@settings(max_examples=60, deadline=None)
@given(batch_cases())
def test_one_call_sweeps_every_abscissa(case):
    # row i of an array call is the one-element call at z[i], bitwise: the weights are
    # formed by the same expressions, and quad gives each interval the same
    # value whatever intervals share its call
    bv, grid, v_max, z = case
    partial = weighted_partial_grid(bv, z, grid, 1e-12)
    tail = weighted_tail_grid(bv, z, grid, v_max, 1e-12)
    assert partial.shape == tail.shape == (z.size, grid.size, 2)
    for i, zi in enumerate(z):
        assert np.array_equal(partial[i], weighted_partial_grid(bv, [zi], grid, 1e-12)[0])
        assert np.array_equal(tail[i], weighted_tail_grid(bv, [zi], grid, v_max, 1e-12)[0])


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
        got = weighted_partial_grid(bv, [1000.0], grid)[0]
        want = loop_sweep(bv, 1000.0 + 0j, grid, 0.0, 1e-10)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got)) == pytest.approx(1.006e300, rel=1e-3)
        assert np.max(np.abs(got - want)) <= 1e-13 * 400 * 1e300

    def test_overflow_raises_instead_of_returning_a_number(self):
        # each row holds one finite jump, but their sum at t = 0.5 is 2.1e308
        bv = BVFunction(1, np.asarray([0.0, 0.001]), np.full((2, 1), 1.7e308 + 0j))
        with pytest.raises(NonFiniteIntegrandError, match="weighted sweep"):
            weighted_partial_grid(bv, [1.0], np.asarray([0.0005, 0.5]))

    def test_jumps_are_taken_in_bounded_chunks(self, monkeypatch):
        # tiles of 7 jumps split rows between tiles; the sums must not change
        tau, sizes = alternating_jumps(300)
        bv = BVFunction(2, tau, np.hstack((sizes, 1j * sizes[::-1])))
        grid = np.sort(np.concatenate((np.linspace(0.0, 6.0, 50), tau[::40])))
        for z in (0.5, 3.0 + 2.0j):
            whole = weighted_partial_grid(bv, [z], grid), weighted_tail_grid(bv, [z], grid, 7.0)
            monkeypatch.setattr(bv_module, "_TILE_JUMPS", 7)
            chunked = weighted_partial_grid(bv, [z], grid), weighted_tail_grid(bv, [z], grid, 7.0)
            monkeypatch.undo()
            for got, want in zip(chunked, whole):
                assert np.max(np.abs(got - want)) <= 1e-15 * float(np.sum(np.abs(sizes)))


@pytest.mark.parametrize("bv", [
    BVFunction(1, np.asarray([0.5, 1.5]), np.ones((2, 1), dtype=complex)),
    BVFunction(1, pieces=(DensityPiece(1.2, 1.8, "constant", (1.0,)),))], ids=["jump", "density"])
def test_held_rows_that_leave_out_a_rising_row_are_exact(bv):
    # row 2's step [1, 2) takes the jump at 1.5 or meets the piece on [1.2, 1.8).  Left out of
    # held, it lands in row 3's step [1, 3), with row 3's weights
    grid = np.asarray([0.0, 1.0, 2.0, 3.0])
    want = {"jump": math.exp(-2.5) + math.exp(-1.5), "density": math.exp(-1.2) - math.exp(-1.8)}
    for held in ([0, 1, 3], [0, 1, 2, 3], [3]):
        got = weighted_partial_grid(bv, [1.0], grid, held=np.asarray(held))[0, -1, 0]
        assert got == pytest.approx(want["jump" if bv.jump_times.size else "density"], rel=1e-14)


@pytest.mark.parametrize("held", [[3, 2, 1, 0], [0, 4], [-1, 2], [1, 1], [0.0, 1.0], [[0, 1]],
                                  np.asarray([2, 1], dtype=np.uint8)])
def test_held_must_be_increasing_indices_into_the_grid(held):
    # an unsorted, repeated, negative, fractional or out-of-range list names no sub-grid
    bv = BVFunction(1, np.asarray([0.5, 1.5]), np.ones((2, 1), dtype=complex))
    with pytest.raises(ValueError, match="held must be strictly increasing indices"):
        weighted_partial_grid(bv, [1.0], np.asarray([0.0, 1.0, 2.0, 3.0]), held=held)


TILE_SIZES = (1, 2, 3, 7, 64, bv_module._TILE_JUMPS)


@st.composite
def tile_cases(draw):
    """A d-vector integrator of 1-120 jumps (d = 1 or 2), a grid that may skip jumps or lie
    past them, a tail start and 1-3 abscissas (some far enough to cut jumps below e^-60)."""
    d = draw(st.sampled_from((1, 2)))
    taus = np.unique(draw(st.lists(st.floats(0.0, 7.0), min_size=1, max_size=120)))
    sizes = draw_sizes(draw, taus.size, d)
    grid = np.sort(draw(st.lists(st.floats(0.0, 8.0), min_size=1, max_size=25)))
    v_max = max(float(grid[-1]), draw(st.floats(0.0, 9.0)))
    z = draw(st.lists(st.builds(complex, st.sampled_from((0.0, 0.5, 3.0, 900.0)),
                                st.sampled_from((0.0, 2.0, -3.0))), min_size=1, max_size=3))
    return BVFunction(d, taus, sizes), grid, v_max, np.asarray(z)


@settings(max_examples=60, deadline=None)
@given(tile_cases())
# a tile of the lone jump at 3 takes its complex product in numpy's scalar loop
@example(case=(BVFunction(1, np.asarray([0.0, 3.0]), np.asarray([[0j], [0.83 + 1j]])),
               np.asarray([1.0, 4.0]), 4.0, np.asarray([2j])))
def test_tiles_keep_every_row_bitwise(case):
    # every tile size gives the rows of the chunk plan with chunks of that size,
    # byte for byte: a row's segments are its parts in the windows of one tile
    bv, grid, v_max, z = case
    down = grid[::-1].copy()
    for tile in TILE_SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bv_module, "_TILE_JUMPS", tile)
            partial = bv_module._jump_rows(bv, z, grid, 0.0)
            tail = bv_module._jump_rows(bv, -z, down, v_max)
        assert partial.tobytes() == chunk_rows(bv, z, grid, 0.0, tile).tobytes()
        assert tail.tobytes() == chunk_rows(bv, -z, down, v_max, tile).tobytes()


@pytest.mark.parametrize("n", [200_000, 400_000])
def test_partial_sweep_memory_does_not_grow_with_the_jumps(n):
    # a whole-run chunk plan holds about four arrays of the jumps' length (gaps,
    # weights, products); the chunks hold a few of _TILE_JUMPS entries, whatever n
    # is, also on the coarse grid, where each row holds n / 2 jumps.  The plan's
    # (abscissa, row) arrays, for the alternating Dirichlet table too, stay as small, and so
    # do the contour tail's over a 496-node arc, one row per node
    tau = np.linspace(0.0, 50.0, n, endpoint=False)
    plain = BVFunction(1, tau, np.where(np.arange(n) % 2, -1.0, 1.0).astype(complex)[:, None])
    table = build_instance(np.asarray([[1.0 + 0j], [-1.0]]), n)[0]
    z = [0.5, 3.0 + 2.0j, 40.0]
    arc = 1.5 * np.exp(1j * np.linspace(-math.pi / 2, math.pi / 2, 496))
    runs = [lambda: exp_tail_integral(table, arc, 3.0)]
    for bv, grid in itertools.product((plain, table), (np.linspace(0.0, 50.0, 2001),
                                                       np.asarray([0.0, 25.0, 50.0]))):
        runs += [lambda bv=bv, grid=grid: weighted_partial_grid(bv, z, grid),
                 lambda bv=bv, grid=grid: weighted_tail_grid(bv, z, grid, 50.0)]
    for run in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 200_000  # one (n,) float array of the smaller n


@st.composite
def table_cases(draw):
    """A Dirichlet integrator of a periodic (q, d) table, q <= 6 and d <= 2 (in half the draws
    a dyadic table whose rows sum to exactly 0), with 500 to 60000 jumps; a grid up to past
    the last jump, and 1-4 abscissas with |z| <= 1000, real in about half the draws."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, d = draw(st.integers(1, 6)), draw(st.integers(1, 2))
    if draw(st.booleans()):
        table = (rng.integers(-8, 9, (q, d)) + 1j * rng.integers(-8, 9, (q, d))) / 8.0
        table[-1] = -table[:-1].sum(axis=0)  # exact in dyadic arithmetic
    else:
        table = rng.uniform(-1.0, 1.0, (q, d)) + 1j * rng.uniform(-1.0, 1.0, (q, d))
    n = draw(st.integers(500, 60_000))
    bv = build_instance(table, n, draw(st.sampled_from(("euclidean", "sup"))))[0]
    t_max = math.log(n) + 1.0
    grid = np.sort(rng.uniform(0.0, t_max, draw(st.integers(1, 200))))
    modulus = 10.0 ** rng.uniform(-2.0, 3.0, draw(st.integers(1, 4)))
    angle = np.where(rng.random(modulus.size) < 0.5, 0.0,
                     rng.uniform(-math.pi / 2, math.pi / 2, modulus.size))
    return bv, grid, t_max, modulus * np.exp(1j * angle)


@settings(max_examples=150, deadline=None)
@given(table_cases())
def test_table_rows_match_the_jump_kernel(case):
    # the same integrator without its table sums every jump one at a time.  Each row of
    # either sweep direction agrees within _RANGE_SUM_TOL of its jump mass, plus the rounding
    # of both sums, eps (1 + |z| log n) of it (the exponents are formed in absolute log n),
    # and the weights either one cuts at e^-60 of a jump.  A range sum's bound is so small
    # that verify's small-x slack need not count it
    assert bv_module._RANGE_SUM_TOL <= 1e-8 * verify_module._SMALL_X_SLACK
    bv, grid, v_max, z = case
    plain = plain_jumps(bv)
    tau, sizes = bv.jumps_at(slice(None))
    norms = vector_norm(sizes, "euclidean")
    masses = BVFunction(1, tau, norms[:, None] + 0j)
    rounding = 16.0 * np.finfo(float).eps * (1.0 + np.abs(z) * math.log(tau.size))
    for sweep, args in ((weighted_partial_grid, ()), (weighted_tail_grid, (v_max,))):
        got, want = sweep(bv, z, grid, *args), sweep(plain, z, grid, *args)
        mass = sweep(masses, z.real, grid, *args)[..., 0].real
        allowed = ((bv_module._RANGE_SUM_TOL + rounding[:, None]) * mass
                   + math.exp(-bv_module._NEGLIGIBLE_LOG) * np.max(norms))
        assert np.all(vector_norm(got - want, "euclidean") <= allowed)
    # the contour evaluators and the improper transform take the range plan on the table and
    # block-Taylor on the plain jumps: the same bound against each node's jump mass, plus
    # block-Taylor's truncation
    t, cert = float(grid[grid.size // 2]), TauberianCertificate(C=1.0, x0=1.0)
    t_star = improper_laplace(plain, z + 1.0, cert).t_star[:, None]
    decay = np.exp(-z.real[:, None] * np.abs(tau - t))
    for evaluate, nodes, weights in (
            (lambda f: exp_tail_integral(f, z, t), z, np.where(tau >= t, decay, 0.0)),
            (lambda f: exp_partial_integral(f, -z, t), z, np.where(tau < t, decay, 0.0)),
            (lambda f: improper_laplace(f, z + 1.0, cert).value, z + 1.0,
             np.where(tau < t_star, np.exp(-(z.real[:, None] + 1.0) * tau), 0.0))):
        rounding = 16.0 * np.finfo(float).eps * (1.0 + np.abs(nodes) * math.log(tau.size))
        allowed = ((bv_module._RANGE_SUM_TOL + rounding) * (weights @ norms)
                   + math.exp(-bv_module._NEGLIGIBLE_LOG) * np.max(norms)
                   + jump_sum_remainder(plain))
        assert np.all(vector_norm(evaluate(bv) - evaluate(plain), "euclidean") <= allowed)
    assert not np.any(exp_tail_integral(bv, z, math.inf))  # no jump, and no phase e^{i Im(z) inf}
    # a row that lies wholly before an abscissa's head is summed jump by jump, in the same
    # chunks and with the same arithmetic as without the table: bit for bit
    for c, points, start in ((z, grid, 0.0), (-z, grid[::-1].copy(), v_max)):
        periods = np.ceil(bv_module._HEAD_SLOPE * np.abs(c) + bv_module._HEAD_PERIODS)
        proven = bv_module._range_sum_bound(c, periods) <= bv_module._RANGE_SUM_TOL
        head = np.where(proven, np.minimum(bv.table.shape[0] * periods, tau.size), tau.size)
        bounds = np.searchsorted(tau, np.concatenate(([start], points)))
        before = np.maximum(bounds[:-1], bounds[1:]) <= head[:, None]
        got = bv_module._jump_rows(bv, c, points, start)[before]
        want = bv_module._jump_rows(plain, c, points, start)[before]
        assert got.tobytes() == want.tobytes()


def test_head_rule_proves_every_range_sum():
    # the head ceil(2 |c| + 32) periods proves the remainder below 2^-60 of the jump mass
    # at every |c| up to 1e9 and every phase, with room: the bound grows towards its limit as
    # |c| -> inf on the negative axis, 0.098 of 2^-60
    modulus = np.concatenate((np.linspace(0.0, 80.0, 1601), np.geomspace(80.0, 1e9, 400)))
    c = (modulus[:, None] * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 49))).ravel()
    periods = np.ceil(bv_module._HEAD_SLOPE * np.abs(c) + bv_module._HEAD_PERIODS)
    ratio = bv_module._range_sum_bound(c, periods) / bv_module._RANGE_SUM_TOL
    assert np.max(ratio) < 0.1
    assert np.max(ratio) > 0.09  # near the limit, on the negative axis at 1e9


@pytest.mark.parametrize("q, d, c, m0, m1", [
    (6, 2, 0.29, 200_000, 200_500),
    (2, 1, 1.0 + 2.0j, 500_000_000, 500_001_000),
    (1, 1, -1.0 - 2.0j, 2_000_000, 2_002_000),
    (3, 2, 19.0, 1_000_000, 1_000_700),
    (2, 1, 373.0 + 100.0j, 1_000_000, 1_001_000),
    (5, 1, -139.0, 300_000, 300_400),
    # heads below the rule, where the bound is 1e-11 to 1e-9 and must still hold
    (2, 1, 2.5 + 1.0j, 8, 60),
    (3, 2, -3.0, 10, 60),
    (1, 1, -6.0 + 3.0j, 12, 40),
])
def test_period_sums_match_mpmath(rng, q, d, c, m0, m1):
    # ranges past n = 1e6 (one past 1e9), and two from small heads: within the bound that
    # _range_sum_bound gives at m0, plus eps (1 + |c| log n) of the jump mass for rounding
    table = rng.uniform(-1.0, 1.0, (q, d)) + 1j * rng.uniform(-1.0, 1.0, (q, d))
    c = complex(c)
    t = math.log(q * (m1 if c.real > 0 else m0))
    want, mass = dirichlet_range_sum(table, c, t, q * m0, q * m1)
    bound = bv_module._range_sum_bound(np.asarray([c]), np.asarray([float(m0)]))[0]
    assert bound < 1e-8
    got = bv_module._period_sums(table, np.asarray([c]), np.asarray([float(m0)]),
                                 np.asarray([0]), np.asarray([t]), np.asarray([m0]),
                                 np.asarray([m1]))[0]
    rounding = np.finfo(float).eps * (1.0 + abs(c) * math.log(q * m1))
    assert np.linalg.norm(got - want) <= (bound + rounding) * mass


def test_period_sums_of_one_range_are_those_among_others(rng):
    # one abscissa's range sum alone is bitwise the same range's among other abscissas'
    # ranges; the mu_0 term of a lone range was rounded unlike the same term in a batch
    for _ in range(40):
        q, d = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        table = rng.uniform(-1.0, 1.0, (q, d)) + 1j * rng.uniform(-1.0, 1.0, (q, d))
        c = rng.uniform(0.1, 20.0, 3) * np.exp(1j * rng.uniform(-1.5, 1.5, 3))
        periods = np.ceil(bv_module._HEAD_SLOPE * np.abs(c) + bv_module._HEAD_PERIODS)
        m0 = periods.astype(int) + rng.integers(0, 50, 3)
        m1 = m0 + rng.integers(1, 5000, 3)
        t = np.log(q * m1 + 1.0)
        batch = bv_module._period_sums(table, c, periods, np.arange(3), t, m0, m1)
        for k in range(3):
            alone = bv_module._period_sums(table, c[k:k + 1], periods[k:k + 1], np.asarray([0]),
                                           t[k:k + 1], m0[k:k + 1], m1[k:k + 1])
            assert alone.tobytes() == batch[k:k + 1].tobytes()


def assert_bitwise(got, want):
    """got == want, and bit for bit wherever want is not zero (a zero may differ in sign)."""
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    live = want.view(float) != 0
    assert np.array_equal(got.view(float)[live].view(np.uint64),
                          want.view(float)[live].view(np.uint64))


class TestOneCallForEveryAbscissa:
    """The scan and the jump rows of many abscissas in one call are those of each alone."""

    def test_batched_scan_equals_one_scan_per_abscissa(self, rng):
        # |x| span(t) = 2|x| below, just below and exactly at 256, where floor
        # cuts the last point into a second block, and far above; one abscissa
        # of zero rows.  Negative rates walk the grid downward, as the tail does
        points = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 2.0, 60)), [2.0]))
        held = np.unique(np.concatenate(([0], rng.choice(points.size, 25), [points.size - 1])))
        rates = [0.0, 0.7, np.nextafter(128.0, 0.0), 128.0, 300.0, 40.0]
        assert np.floor(128.0 * 2.0 / bv_module._SCAN_SPAN) == 1.0
        assert np.floor(np.nextafter(128.0, 0.0) * 2.0 / bv_module._SCAN_SPAN) == 0.0
        for sign, grid in ((1.0, points), (-1.0, points[::-1].copy())):
            xr = sign * np.asarray(rates)
            rows = rng.normal(size=(xr.size, held.size, 2)) + 1j * rng.normal(
                size=(xr.size, held.size, 2))
            rows[-1] = 0.0
            want = np.stack([scan_one(r, x, grid, held) for r, x in zip(rows, xr)])
            each = rows.copy()
            bv_module._decay_scan(rows, xr, grid, held)
            for k in range(xr.size):
                bv_module._decay_scan(each[k:k + 1], xr[k:k + 1], grid, held)
            assert np.array_equal(rows.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(each.view(np.uint64), want.view(np.uint64))

    def test_scan_stops_at_the_block_of_the_last_held_row(self, rng):
        # on a [0, 50] grid at x = 1000 the blocks span 0.256 in t, 196 in all,
        # but every held row lies below t = 1.2, in the first 5; at x = 100 the
        # held rows fit one block though the grid spans 20.  Each abscissa is
        # bitwise the walk over every block, downward (the tail's order) too
        points = np.linspace(0.0, 50.0, 5001)
        held = np.unique(np.concatenate(([0], rng.choice(121, 30), [120])))
        rates = np.asarray([1000.0, 100.0, 5.0, 1000.0])
        assert np.floor(1000.0 * 50.0 / bv_module._SCAN_SPAN) == 195.0
        assert np.floor(100.0 * points[120] / bv_module._SCAN_SPAN) == 0.0
        for sign, grid in ((1.0, points), (-1.0, points[::-1].copy())):
            xr = sign * rates
            rows = rng.normal(size=(xr.size, held.size, 2)) + 1j * rng.normal(
                size=(xr.size, held.size, 2))
            rows[-1] *= 1e-200  # a scale far from 1
            want = np.stack([scan_one(r, x, grid, held) for r, x in zip(rows, xr)])
            bv_module._decay_scan(rows, xr, grid, held)
            assert np.array_equal(rows.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("tile", [bv_module._TILE_JUMPS, 37])
    def test_jump_rows_equal_each_abscissa_alone(self, tile, monkeypatch):
        # real, complex, real, cut (jumps below e^-60 of their row), uncut: one
        # abscissa's chunks carry nothing into the next's, also across chunks of
        # 37 jumps
        monkeypatch.setattr(bv_module, "_TILE_JUMPS", tile)
        tau, sizes = alternating_jumps(400)
        bv = BVFunction(2, tau, np.hstack((sizes, 1j * sizes[::-1])))
        grid = np.sort(np.concatenate((np.linspace(0.0, 6.5, 40), tau[::50] + 1e-9)))
        c = np.asarray([0.5, 2.0 - 3.0j, 0.0, 900.0 + 1.0j, 1e-3])
        for points, start, rates in ((grid, 0.0, c), (grid[::-1].copy(), 7.0, -c)):
            got = bv_module._jump_rows(bv, rates, points, start)
            for k in range(rates.size):
                assert_bitwise(got[k:k + 1],
                               bv_module._jump_rows(bv, rates[k:k + 1], points, start))
        assert 900.0 * np.max(np.diff(grid)) > bv_module._NEGLIGIBLE_LOG  # abscissa 3 cuts

    def test_exponential_piece_with_a_complex_rate(self):
        # DensityPiece.rate is complex: e^{(-0.5 + 3i) s} on [0.5, 4) in closed form
        rate, scale, lo, hi = -0.5 + 3.0j, 1.5 - 0.5j, 0.5, 4.0
        bv = BVFunction(1, pieces=(DensityPiece(lo, hi, "exponential", (scale,), rate),))
        for c in (0.0, 1.0 - 2.0j, 0.7 + 0.25j):
            d = c + rate
            want = scale * (np.exp(d * hi) - np.exp(d * lo)) / d
            assert abs(stieltjes_integral(bv, c, 5.0)[0] - want) <= 1e-13 * abs(want)
        grid = np.linspace(0.0, 5.0, 11)
        z = 0.7 + 2.0j
        d = z + rate
        end = np.clip(grid, lo, hi)
        want = scale * np.exp(-z.real * grid) * (np.exp(d * end) - np.exp(d * lo)) / d
        got = weighted_partial_grid(bv, [z], grid)[0, :, 0]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.all(got[grid <= lo] == 0)


def assert_matches_dense(tau, sizes, z, t):
    """Kernel vs dense reference within its remainder plus 64 eps sum |s|."""
    got = _jump_exp_sum(tau, sizes, z, t)
    bound = jump_sum_remainder(BVFunction(sizes.shape[1], tau, sizes))
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


class TestJumpExpSum:
    """The block-Taylor kernel against the dense node x jump sum."""

    @pytest.mark.parametrize("size", [1e-200, 1e200])
    def test_remainder_of_tiny_and_huge_sizes(self, size):
        # np.linalg.norm squared these sizes into 0 and inf
        bound = jump_sum_remainder(BVFunction(2, np.asarray([0.0, 1.0]),
                                              np.asarray([[size, 1j * size], [size, 0.0]])))
        assert 0.0 < bound < math.inf
        assert bound == pytest.approx(bv_module._TAYLOR_REMAINDER * (1.0 + math.sqrt(2.0)) * size,
                                      rel=1e-14)

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
        got = _jump_exp_sum(np.asarray([3.0]), np.asarray([[2.0 - 1.0j]]), z, 1.0)
        want = (2.0 - 1.0j) * np.exp(-z * 2.0)
        np.testing.assert_allclose(got[:, 0], want, rtol=1e-15, atol=0)

    def test_nonfinite_node_is_rejected(self):
        # block-Taylor on plain jumps, the range plan on a repeating table
        for bv in (jump_integrator([(1.0, 1.0), (2.0, -0.5)]),
                   build_instance(np.asarray([[1.0 + 0j], [-1.0]]), 8)[0]):
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
        bound = jump_sum_remainder(BVFunction(1, tau, sizes))
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


@st.composite
def smooth_piece_cases(draw):
    """A constant or exponential piece, a log-weight of one of the three shapes the
    callers pass, with its slope, ranges of it, some maybe unbounded, and whether
    it is stieltjes_integral's rate s."""
    kind = draw(st.sampled_from(("constant", "exponential")))
    rate = complex(*draw(_slope_part)) if kind == "exponential" else 0.0
    c = np.asarray([complex(*p) for p in draw(st.lists(_slope_part, min_size=1, max_size=4))])
    t = draw(st.floats(0.0, 8.0))
    shape = draw(st.sampled_from(("stieltjes", "sweep", "contour")))
    if shape == "stieltjes":  # rate s, one rate for every range
        c = slope = np.full(c.size, c[0])

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
    # lengths down to subnormal and, on [lo, inf), any phase: the reference is exact
    hi = np.asarray([math.inf if d[i].real < -0.1 and draw(st.booleans())
                     else lo[i] + 5.0 * draw(st.floats(0.0, 1.0)) for i in range(c.size)])
    piece = DensityPiece(0.0, math.inf, kind, (1.0,), rate)
    return piece, log_weight, slope, lo, hi, shape == "stieltjes"


@settings(max_examples=80, deadline=None)
@given(smooth_piece_cases())
# about three whole periods, where the integral cancels to 5.8e-4: a quad reference at
# relative tolerance 1e-13 raised QuadratureError (estimate 5.88e-17 > 5.77e-17)
@example(case=(DensityPiece(0.0, math.inf, "exponential", (1.0,), 4.0390625j),
               lambda s, owner: 4.0390625j * s, np.asarray([4.0390625j]), np.zeros(1),
               np.asarray([2.333984375]), True))
def test_smooth_pieces_take_the_closed_form(case):
    piece, log_weight, slope, lo, hi, stieltjes = case
    got = bv_module._piece_integrals(piece, log_weight, slope, lo, hi, 1e-12)
    # the log-weight is w(0) + slope s, so each integral is e^{w(0)} int e^{(slope + rate) s} ds
    w0 = log_weight(np.zeros((lo.size, 1)), slice(None))[:, 0]
    want = exp_integrals(w0, slope + piece.rate, lo, hi)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    if stieltjes:  # the piece from lo[0], integrated by stieltjes_integral up to hi[0]
        bv = density_integrator(piece.kind, start=lo[0], rate=piece.rate)
        got = stieltjes_integral(bv, slope[0], hi[0], 1e-12)[0]
        assert abs(got - want[0]) <= 1e-12 * abs(want[0])


def test_long_oscillating_piece_takes_the_closed_form():
    # e^{(-0.01 + 3i) s} on [0, 1e5) has about 48k periods: the fixed Gauss-Legendre
    # path needed 2e5 panels and its quad fallback gave up with a QuadratureError
    length = 1e5
    bv = density_integrator("exponential", rate=-0.01, end=length)
    q = -0.01 + 3j
    got = stieltjes_integral(bv, 3j, length)[0]
    assert got == pytest.approx((np.exp(q * length) - 1.0) / q, rel=1e-12)


@pytest.mark.parametrize("kind, rate, phi_rate", [("constant", 0.0, 0.0),
                                                  ("constant", 0.0, 2j),
                                                  ("exponential", 0.5, -0.5 + 1j),
                                                  ("exponential", 0.25, 0.0)])
def test_unbounded_smooth_piece_that_does_not_decay_diverges(kind, rate, phi_rate):
    bv = density_integrator(kind, start=1.0, rate=rate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"integral over \[1, inf\) diverges") as info:
            stieltjes_integral(bv, phi_rate, math.inf)
    assert not isinstance(info.value, NonFiniteIntegrandError)


@pytest.mark.parametrize("exponent, converges", [(-2.0, True), (-1.0, False), (-0.5, False)])
def test_unbounded_power_piece_converges_only_below_one_over_s(exponent, converges):
    # int_1^inf s^a ds = -1 / (a + 1) for a < -1: no exponential decay is needed
    bv = density_integrator("power", start=1.0, exponent=exponent)
    if converges:
        assert bv.value_at(math.inf)[0] == pytest.approx(-1.0 / (exponent + 1.0), rel=1e-12)
    else:
        with pytest.raises(ValueError, match=r"integral over \[1, inf\) diverges"):
            bv.value_at(math.inf)


def test_nonfinite_integrand_error_names_location():
    bv = density_integrator("constant", start=0.0, end=10.0)
    with pytest.raises(NonFiniteIntegrandError) as info:
        stieltjes_integral(bv, 1000.0, 10.0, 1e-10)
    assert 0.0 <= info.value.s <= 10.0


def test_norm_kinds_agree_on_scalars():
    for kind in ("euclidean", "sup"):
        bv = jump_integrator([(1.0, -2.0)], norm_kind=kind)
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

    NEAR = -1.0 + 1e-9  # s^a ds = du with u = expm1(b log s) / b, b = 1e-9

    def test_near_singular_power_keeps_its_digits(self):
        # in u = s^b both ends of [0.2, 10) lie within 4e-9 of 1, which cost 8 digits
        bv = density_integrator("power", start=0.2, end=10.0, exponent=self.NEAR)
        b = self.NEAR + 1.0
        want = 0.2 ** b * math.expm1(b * math.log(50.0)) / b
        assert want == power_series(0.0, self.NEAR, 0.2, 10.0)
        assert abs(total_variation(bv, 10.0) - want) <= 1e-15 * want
        assert abs(stieltjes_integral(bv, 0.0, 10.0)[0] - want) <= 1e-15 * want

    def test_near_singular_power_under_an_oscillating_weight(self):
        # in u = s^b quad did not converge here (error estimate 2.4e-10 > 1e-12)
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.prec = 200
        bv = density_integrator("power", start=0.2, end=10.0, exponent=self.NEAR)
        want = complex(power_series(mpmath.mpc(-0.7, 2.0), mpmath.mpf(self.NEAR),
                                    mpmath.mpf(0.2), mpmath.mpf(10.0), mpmath))
        got = stieltjes_integral(bv, -0.7 + 2j, 10.0, 1e-12)[0]
        assert abs(got - want) <= 1e-15 * abs(want)

    def test_near_singular_power_in_the_verify_sweep(self):
        # the line sup at x0 = 1 is 0.2 e^{-1} int_0.2^1 e^s s^a ds, at t = 1; in
        # u = s^b it read 0.19989674833393845
        bv = density_integrator("power", start=0.2, end=10.0, exponent=self.NEAR, scale=0.2)
        line = check_certificate(bv, TauberianCertificate(C=1.0, x0=1.0),
                                 t_grid=np.linspace(0.0, 12.0, 25))[1]
        want = 0.2 * math.exp(-1.0) * power_series(1.0, self.NEAR, 0.2, 1.0)
        assert (line.case_id, line.witness_t) == ("line_bound_x1_y0", 1.0)
        assert abs(line.value - want) <= 1e-15 * want

    def test_near_singular_power_from_zero(self):
        # s = 0 is u = -1/b, mapped back to s = 0 exactly
        a, z = -1.0 + 1e-3, 0.5 - 1.0j
        bv = density_integrator("power", end=1.0, exponent=a)
        got = stieltjes_integral(bv, -0.7 + 2j, 1.0, 1e-12)[0]
        want = power_series(-0.7 + 2j, a, 0.0, 1.0)
        assert abs(got - want) <= 1e-14 * abs(want)
        t = np.asarray([0.0, 0.5, 1.0, 2.0])
        swept = weighted_partial_grid(bv, [z], t, 1e-12)[0, :, 0]
        want = np.exp(-z.real * t) * np.asarray([power_series(z, a, 0.0, min(ti, 1.0))
                                                 for ti in t])
        assert swept[0] == 0 and np.all(np.abs(swept[1:] - want[1:]) <= 1e-14 * np.abs(want[1:]))

    @pytest.mark.parametrize("a", SINGULAR_EXPONENTS)
    def test_power_on_the_unit_interval(self, a):
        bv = density_integrator("power", exponent=a, end=1.0)
        got = stieltjes_integral(bv, 0.0, 1.0, 1e-12)[0]
        assert abs(got - 1.0 / (a + 1.0)) <= 1e-10 / (a + 1.0)
        assert abs(total_variation(bv, 1.0) - 1.0 / (a + 1.0)) <= 1e-10 / (a + 1.0)

    @pytest.mark.parametrize("a", SINGULAR_EXPONENTS)
    def test_damped_power_laplace_transform(self, a):
        # int_0^inf s^a e^{-s} e^{-zs} ds = Gamma(a+1) / (z+1)^{a+1}; the part
        # past 60 is below e^-90
        z = 0.5 + 2.0j
        bv = density_integrator("damped_power", exponent=a, rate=-1.0)
        got = stieltjes_integral(bv, -z, 60.0, 1e-12)[0]
        want = math.gamma(a + 1.0) / (z + 1.0) ** (a + 1.0)
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_grids_against_literal_integrals(self):
        bv = density_integrator("power", exponent=-0.5, end=5.0, scale=(1.0, 0.5j))
        t_grid = np.asarray([0.0, 0.25, 1.0, 2.5, 4.0, 6.0])
        z = 0.3 + 1.1j
        partial = weighted_partial_grid(bv, [z], t_grid, 1e-13)[0]
        tail = weighted_tail_grid(bv, [z], t_grid, 6.0, 1e-13)[0]
        whole = stieltjes_integral(bv, -z, 6.0, 1e-13)

        def gap(got, want):
            return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)

        for j, tj in enumerate(t_grid):
            want_partial = math.exp(-z.real * tj) * stieltjes_integral(
                bv, z, tj, 1e-13)
            want_tail = math.exp(z.real * tj) * (whole - stieltjes_integral(
                bv, -z, tj, 1e-13))
            if tj > 0:
                assert gap(partial[j], want_partial) <= 1e-10
            if tj < 5.0:
                assert gap(tail[j], want_tail) <= 1e-10
        # [0, 0) and [6, 6) are empty, and the density ends at 5
        assert np.all(partial[0] == 0) and np.all(tail[-1] == 0)

    @pytest.mark.parametrize("a", SINGULAR_EXPONENTS)
    def test_contour_tail_over_an_unbounded_piece(self, a):
        # [0, inf) in u = expm1(b log s) / b, then mapped onto [0, 1): both substitutions
        # at once
        z = np.asarray([0.5 + 2.0j, 1.0, 3.0j, 0.01 - 40.0j])
        bv = density_integrator("damped_power", exponent=a, rate=-1.0)
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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-10])
    def test_a_tolerance_that_is_not_a_finite_number_at_least_0_is_refused(self, tol):
        # max(nan, 1e-12 |I|) is nan, and err > nan is false: every interval
        # counted as converged after one Kronrod pass
        with pytest.raises(ValueError, match=f"quadrature tolerance .* not {tol!r}"):
            quad(lambda s, owner: np.sin(30.0 * s), [0.0], [1.0], tol)

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
    bv = density_integrator("power", exponent=0.5, end=200.0)
    with pytest.raises(ArithmeticError) as info:
        stieltjes_integral(bv, 2e3j, 200.0)
    assert "[0, 200)" in str(info.value) and "'power'" in str(info.value)


class TestOpenQuadratureDefects:
    """Confirmed density-quadrature defects, each against an independent reference.

    Each mark is strict: the fix makes the test pass, and strict mode then
    fails it until the mark is removed.
    """

    @pytest.mark.xfail(strict=True, raises=QuadratureError,
                       reason="the sweep forms the phase y s in absolute s, so at "
                              "|y s| ~ 4e4 the error estimate stays above the tolerance")
    def test_phase_at_large_abscissa_times_time(self):
        lo, hi, a, t, z = 39.7359, 40.2359, 1.786, 40.3, 1.0 - 996.7j
        scale = 40.0 ** -a
        bv = density_integrator("power", start=lo, end=hi, exponent=a, scale=scale)
        got = weighted_partial_grid(bv, [z], [t])[0, 0, 0]
        # e^{zs - xt} = e^{z (s - t)} e^{iyt}: nodes and phase taken in u = s - t
        u, w = gauss_legendre_panels(lo - t, hi - t, 2000)
        want = complex(np.sum(w * scale * (t + u) ** a * np.exp(z * u))) * np.exp(1j * z.imag * t)
        assert abs(got - want) <= 1e-10

    @pytest.mark.xfail(strict=True, raises=QuadratureError,
                       reason="an oscillating damped_power piece on [0, inf) does not "
                              "converge in 400 subintervals")
    def test_oscillating_unbounded_damped_power(self):
        z = 0.1 + 40.0j
        bv = density_integrator("damped_power", rate=-0.5, exponent=1.0)
        got = exp_tail_integral(bv, np.asarray([z]), 0.0, 1e-13)[0, 0]
        assert abs(got - 1.0 / (z + 0.5) ** 2) <= 1e-13  # int_0^inf e^{-zs} s e^{-s/2} ds

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="every Gauss-Kronrod node of the first pass lands where the "
                              "integrand is flat in u, so a wrong value converges")
    def test_near_singular_power_from_zero_under_a_weight(self):
        a, c = -1.0 + 1e-4, -0.7 + 2j
        bv = density_integrator("power", end=1.0, exponent=a)
        got = stieltjes_integral(bv, c, 1.0, 1e-12)[0]
        want = power_series(c, a, 0.0, 1.0)  # 9998.858 + 1.2008i
        assert abs(got - want) <= 1e-13 * abs(want)
