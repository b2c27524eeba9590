"""Growth presets, the log-balance function, and its certified inverse."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauberian_lab.growth import (GROWTH_PARAMS, CutoffRule, GrowthBound, GrowthDomainError, m_log,
                                  m_log_inverse)

from exact import GROWTH_PRESETS

MORE_PRESETS = [
    GrowthBound("constant", 1.0),
    GrowthBound("affine", 1.0),
    GrowthBound("power", 2.0, alpha=0.5),
    GrowthBound("log", 1.0, beta=1.0),
    GrowthBound("exp", 1.5, kappa=0.5),
]


def branch_start(M, C):
    """Left end of m_log's increasing branch: m_log_inverse at the floor max(m_log(1), 0)."""
    return float(m_log_inverse(M, C, [max(m_log(M, C, 1.0), 0.0)])[0])


class TestGrowthBound:
    def test_preset_values(self):
        assert GrowthBound("constant", 2.0)(7.3) == 2.0
        assert GrowthBound("affine", 1.5)(3.0) == pytest.approx(6.0)
        assert GrowthBound("power", 2.0, alpha=0.5)(3.0) == pytest.approx(4.0)
        lp = GrowthBound("log", 1.5, beta=2.0)
        assert lp(0.0) == pytest.approx(1.5 * math.log(math.e) ** 2)
        assert GrowthBound("exp", 1.0, kappa=0.2)(5.0) == pytest.approx(math.e)

    def test_vectorized_call(self):
        M = GrowthBound("affine", 1.0)
        s = np.asarray([0.0, 1.0, 4.0])
        np.testing.assert_allclose(M(s), [1.0, 2.0, 5.0])

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(list(GROWTH_PARAMS)),
           st.floats(1.0, 1.7e308),
           st.floats(0.0, 1.7e308, exclude_min=True))
    def test_every_accepted_preset_is_at_least_one_and_nondecreasing(self, kind, c, p):
        # construction checks only the parameters, which is enough: on a grid
        # of s from 0 to 1e6, M >= 1, M never decreases (to 1e-9 relative), and
        # once M leaves float range it stays out
        M = GrowthBound(kind, c, alpha=p, beta=p, kappa=p)
        vals = M(np.concatenate(([0.0], np.geomspace(1e-6, 1e6, 9_999))))
        assert not np.any(np.isnan(vals))
        finite = np.isfinite(vals)
        assert np.all(finite[:-1] >= finite[1:])  # inf only as a suffix
        fv = vals[finite]
        assert np.all(fv >= 1.0)
        assert np.all(np.diff(fv) >= -1e-9 * fv[:-1])

    def test_certification_rejects_small_or_decreasing(self):
        with pytest.raises(ValueError):
            GrowthBound("constant", 0.5)  # values below 1
        with pytest.raises(ValueError):
            GrowthBound("exp", 1.0, kappa=-0.3)  # decreasing
        with pytest.raises(ValueError):
            GrowthBound("power", 1.0, alpha=-1.0)

    @pytest.mark.parametrize("kind, params", [("constant", {"c": math.inf}),
                                              ("power", {"c": 1.0, "alpha": math.inf}),
                                              ("log", {"c": 1.0, "beta": math.inf}),
                                              ("exp", {"c": 1.0, "kappa": math.inf})])
    def test_non_finite_parameter_is_refused(self, kind, params):
        # M = inf off s = 0 once passed the certification grid, and rate printed
        # an empty table with T' = inf
        name = list(params)[-1]
        with pytest.raises(ValueError, match=f"growth parameter {name} must be finite"):
            GrowthBound(kind, **params)


class TestCutoffRule:
    def test_exp_t(self):
        rule = CutoffRule("exp_t")
        assert rule(2.0) == pytest.approx(math.exp(2.0))

    def test_infinite(self):
        rule = CutoffRule("infinite")
        assert math.isinf(rule(100.0))

    def test_constant(self):
        rule = CutoffRule("constant", 3.0)
        assert rule(57.0) == 3.0
        with pytest.raises(ValueError):
            CutoffRule("constant", 0.5)  # radius rule must allow R >= 1


class TestMLog:
    def test_example_value(self):
        # M = 2, C = 1 at a = 2: 2 (log 2 + log 2 - 0.5 log 5)
        M = GrowthBound("constant", 2.0)
        want = 2.0 * (2.0 * math.log(2.0) - 0.5 * math.log(5.0))
        assert m_log(M, 1.0, 2.0) == pytest.approx(want, rel=1e-14)

    def test_affine_example(self):
        # M(a) = 1 + a, C = 1, a = 10: 11 (log 10 + log 11 - 0.5 log 5)
        M = GrowthBound("affine", 1.0)
        want = 11.0 * (math.log(10.0) + math.log(11.0) - 0.5 * math.log(5.0))
        assert m_log(M, 1.0, 10.0) == pytest.approx(want, rel=1e-14)

    def test_vectorized(self):
        M = GrowthBound("constant", 2.0)
        a = np.asarray([2.0, 4.0, 8.0])
        vals = m_log(M, 1.0, a)
        assert vals.shape == (3,)
        assert np.all(np.diff(vals) > 0)

    def test_branch_start_is_a_root_or_one(self):
        for M, C in [(GrowthBound("constant", 1.0), 0.2), (GrowthBound("constant", 2.0), 1.0),
                     (GrowthBound("affine", 1.0), 1.0)]:
            a0 = branch_start(M, C)
            assert a0 >= 1.0
            val = m_log(M, C, a0)
            # either the increasing branch starts at a = 1, or at the sign change
            assert a0 == 1.0 or abs(val) < 1e-9
        # a start above 1 lies within one float of m_log's sign change
        above_one = 0
        for M in GROWTH_PRESETS + MORE_PRESETS:
            for C in (0.05, 0.2, 1.0, 2.0, 7.5, 30.0, 1e3, 1e6):
                a0 = branch_start(M, C)
                if a0 == 1.0:
                    assert m_log(M, C, 1.0) >= 0.0, (M, C)
                    continue
                above_one += 1
                below, above = np.nextafter(a0, 0.0), np.nextafter(a0, math.inf)
                assert m_log(M, C, below) < 0.0 <= m_log(M, C, above), (M, C, a0)
        assert above_one >= 40

    def test_branch_start_out_of_float_range_is_loud(self):
        # 5C overflows, so m_log is -inf at every radius and has no root
        with pytest.raises(GrowthDomainError, match="float range"):
            branch_start(GrowthBound("constant", 2.0), 1e308)

    def test_monotone_on_branch(self):
        for M in GROWTH_PRESETS:
            a0 = branch_start(M, 1.0)
            a_hi = 1e6 if math.isfinite(float(M(1e6))) else 5e3
            grid = np.geomspace(max(a0, 1.0), a_hi, 200)
            vals = m_log(M, 1.0, grid)
            assert np.all(np.isfinite(vals)), M
            assert np.all(np.diff(vals) > 0), M


class TestMLogInverse:
    def test_round_trips(self, rng):
        for M in GROWTH_PRESETS:
            a0 = branch_start(M, 1.0)
            y_lo = m_log(M, 1.0, a0)
            # stay within the radii representable in doubles for this preset
            y_hi = min(2500.0, 0.9 * float(m_log(M, 1.0, 1e250)))
            for _ in range(50):
                y = float(rng.uniform(max(y_lo, 0.0) + 0.01, y_hi))
                a = m_log_inverse(M, 1.0, [y])[0]
                back = m_log(M, 1.0, a)
                assert abs(back - y) <= 1e-10 * max(1.0, abs(y)), M

    def test_closed_form_constant_two(self):
        # M = 2, C = 1: m_log(a) = 2 log a + 2 log 2 - log 5, so the
        # inverse of t/4 is (sqrt 5 / 2) e^{t/8}; at t = 8 that is (sqrt 5 / 2) e
        M = GrowthBound("constant", 2.0)
        want = math.sqrt(5.0) / 2.0 * math.e
        assert m_log_inverse(M, 1.0, [2.0])[0] == pytest.approx(want, rel=1e-12)
        for t in (8.0, 16.0, 40.0):
            got = m_log_inverse(M, 1.0, [t / 4.0])[0]
            assert got == pytest.approx(math.sqrt(5.0) / 2.0 * math.exp(t / 8.0), rel=1e-10)

    def test_closed_form_identity_preset(self):
        # M = 1, C = 1/5: m_log(a) = log a exactly, inverse is e^y
        M = GrowthBound("constant", 1.0)
        for y in (0.5, 1.0, 3.0, 10.0):
            assert m_log_inverse(M, 0.2, [y])[0] == pytest.approx(math.exp(y), rel=1e-10)

    def test_domain_error_names_minimum(self):
        # M = 2, C = 1: the increasing branch starts above
        # min value m_log(branch_start); asking below it must fail loudly
        M = GrowthBound("constant", 2.0)
        a0 = branch_start(M, 1.0)
        floor = m_log(M, 1.0, a0)
        with pytest.raises(GrowthDomainError) as info:
            m_log_inverse(M, 1.0, [floor - 0.5])
        assert f"{floor:.6g}"[:6] in str(info.value) or "minimum" in str(info.value)

    def test_power_preset_tracks_polynomial_rate(self):
        # for M(a) = (1+a)^alpha the inverse of t/4 grows like t^{1/alpha}
        # up to logarithms: the ratio varies by less than a factor 5 over
        # four decades
        alpha = 2.0
        M = GrowthBound("power", 1.0, alpha=alpha)
        ts = np.geomspace(1e2, 1e6, 25)
        ratios = m_log_inverse(M, 1.0, ts / 4.0) / ts ** (1.0 / alpha)
        assert ratios.max() / ratios.min() < 5.0

    def test_float_range_exhaustion_is_loud(self):
        # constant growth: the radius for y ~ 1e5 would be e^{y/2}, which no
        # double can hold; the failure must say so instead of stalling
        with pytest.raises(GrowthDomainError, match="float range"):
            m_log_inverse(GrowthBound("constant", 2.0), 1.0, [1e5])

    def test_huge_argument_stays_finite(self):
        M = GrowthBound("affine", 1.0)
        a = m_log_inverse(M, 1.0, [1e5])[0]
        assert math.isfinite(a) and a > 1.0
        assert m_log(M, 1.0, a) == pytest.approx(1e5, rel=1e-10)


def scalar_m_log_inverse(M, C, y, residual_tol=1e-10):
    """One target at a time, with scalar m_log calls: the inversion the array
    routine replaced, kept as its reference."""
    bs = branch_start(M, C)
    m_min = float(m_log(M, C, bs))
    tol = residual_tol * max(1.0, abs(y))
    if y < m_min - tol:
        raise GrowthDomainError(
            f"target {y!r} is below the branch minimum m_log({bs!r}) = {m_min!r}")
    if y <= m_min:
        return bs

    def f(a):
        return float(m_log(M, C, a))

    lo, hi = bs, max(2.0 * bs, 2.0)
    for _ in range(1100):
        fh = f(hi)
        if fh >= y or math.isinf(fh):
            break
        if hi >= 8.9e307:
            raise GrowthDomainError(
                f"no radius in float range reaches m_log = {y!r}; "
                f"m_log({hi:.4g}) = {fh:.4g}")
        lo = hi
        hi *= 2.0
    else:
        raise GrowthDomainError(f"could not bracket m_log = {y!r} from above")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) < y:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    if abs(f(a) - y) > tol:
        raise ArithmeticError(
            f"m_log inversion stalled: residual {abs(f(a) - y):.3e} at a = {a!r} "
            f"exceeds tolerance {tol:.3e}")
    return a


@st.composite
def inversion_targets(draw):
    """A preset, a C, and targets just below (within tolerance), at and just
    above the branch minimum mixed with targets further up the branch."""
    M = draw(st.sampled_from(GROWTH_PRESETS))
    C = draw(st.sampled_from([0.2, 1.0, 7.5]))
    m_min = float(m_log(M, C, branch_start(M, C)))
    scale = max(1.0, abs(m_min))
    near = st.sampled_from([-5e-11, -1e-13, 0.0, 1e-15, 1e-12, 1e-8, 1e-3])
    far = st.floats(1e-2, 1e3)
    ys = draw(st.lists(st.one_of(near.map(lambda d: m_min + d * scale),
                                 far.map(lambda d: m_min + d)), min_size=1, max_size=40))
    return M, C, m_min, ys


class TestArrayInversion:
    @settings(max_examples=80, deadline=None)
    @given(inversion_targets())
    def test_equals_scalar_loop(self, case):
        M, C, _, ys = case
        want = np.asarray([scalar_m_log_inverse(M, C, y) for y in ys])
        got = m_log_inverse(M, C, np.asarray(ys))
        assert np.array_equal(got, want), M

    @settings(max_examples=40, deadline=None)
    @given(inversion_targets(), st.data())
    def test_below_branch_target_is_named(self, case, data):
        M, C, m_min, ys = case
        pos = data.draw(st.integers(0, len(ys)))
        bad = m_min - data.draw(st.floats(1e-6, 10.0))
        ys = ys[:pos] + [bad] + ys[pos:]
        with pytest.raises(GrowthDomainError, match="below the branch minimum") as info:
            m_log_inverse(M, C, np.asarray(ys))
        assert f"target {bad!r} " in str(info.value)
        assert info.value.index == pos

    def test_first_failure_in_order_wins(self):
        # float range runs out at m_log ~ 1418 for M = 2: of two such targets
        # the error names the first, whatever comes after it
        M = GrowthBound("constant", 2.0)
        with pytest.raises(GrowthDomainError) as info:
            m_log_inverse(M, 1.0, np.asarray([3.0, 5e3, 2e3, -9.0]))
        assert str(info.value).startswith("no radius in float range reaches m_log = 5000.0;")
        assert info.value.index == 1

    def test_nan_target_fails_loudly(self):
        # one scalar call at a time, a nan target under exponential growth
        # stopped at the first infinite m_log and came back as a finite radius
        for M in (GrowthBound("exp", 1.0, kappa=0.1), GrowthBound("constant", 2.0)):
            with pytest.raises(GrowthDomainError, match="m_log = nan") as info:
                m_log_inverse(M, 1.0, np.asarray([1.0, math.nan]))
            assert info.value.index == 1

    def test_empty_gives_empty(self):
        got = m_log_inverse(GrowthBound("affine", 1.2), 1.0, np.asarray([]))
        assert isinstance(got, np.ndarray) and got.shape == (0,)
