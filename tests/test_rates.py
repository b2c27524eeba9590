"""The three-term bound, its optimizer, and the branch logic."""

import math

import numpy as np
import pytest

from tauberian_lab.bv import weighted_partial_grid, weighted_tail_grid
from tauberian_lab.growth import CutoffRule, GrowthBound, m_log, m_log_inverse
from tauberian_lab.rates import (bound_B, decay_rate, k_prime, r_opt, t_prime,
                                 t_prime_second_term_clamped)
from tauberian_lab.transform import TauberianCertificate, improper_laplace

from exact import jump_integrator


CONST2 = GrowthBound("constant", 2.0)
CONST10 = GrowthBound("constant", 10.0)


def cert(C: float = 1.0, rule: CutoffRule | None = None, T: float = 0.0) -> TauberianCertificate:
    return TauberianCertificate(C=C, x0=1.0, T=T, R_rule=rule or CutoffRule("infinite"))


class TestBoundB:
    def test_example_value(self):
        # t = 4, R = 1, M = 2, C = 1: 10 + 2/4 + 2*4*e^{-1}
        want = 10.0 + 0.5 + 8.0 * math.exp(-1.0)
        assert bound_B(cert().C, CONST2(1.0), 4.0, 1.0) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(13.443035529371539, rel=1e-12)

    def test_large_time_limit(self):
        # at fixed R the second and third terms die; 10 C / R remains
        val = bound_B(cert().C, CONST2(2.0), 1e6, 2.0)
        assert val == pytest.approx(5.0, abs=1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            bound_B(cert().C, CONST2(2.0), 0.0, 2.0)
        with pytest.raises(ValueError):
            bound_B(cert().C, CONST2(0.5), 1.0, 0.5)


class TestROpt:
    def test_closed_form_constant_two(self):
        got = r_opt(cert(), CONST2, [8.0])[0]
        assert got == pytest.approx(math.sqrt(5.0) / 2.0 * math.e, rel=1e-10)

    def test_closed_form_identity(self):
        # M = 1, C = 1/5: R_opt(t) = e^{t/4}
        got = r_opt(cert(C=0.2), GrowthBound("constant", 1.0), [4.0])[0]
        assert got == pytest.approx(math.e, rel=1e-10)

    def test_balance_postcondition(self):
        # first and third terms agree at the optimizer
        for t in (8.0, 20.0, 60.0):
            R = r_opt(cert(), CONST2, [t])[0]
            first = 10.0 / R
            MR = float(CONST2(R))
            third = 2.0 * R * MR * MR * math.exp(-t / (2.0 * MR))
            assert abs(math.log(first) - math.log(third)) <= 1e-8

    def test_round_trip_through_m_log(self):
        # R_opt solves m_log(R) = t/4 by construction
        M = GrowthBound("affine", 1.2)
        for t in (10.0, 50.0, 200.0):
            R = r_opt(cert(), M, [t])[0]
            assert m_log(M, 1.0, R) == pytest.approx(t / 4.0, rel=1e-8)


class TestThreshold:
    def test_t_prime_example(self):
        # M = 10, C = 1: 40 (log 10 - 0.5 log 5)
        want = 40.0 * (math.log(10.0) - 0.5 * math.log(5.0))
        assert t_prime(cert(), CONST10) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(59.91464547107982, rel=1e-12)
        assert not t_prime_second_term_clamped(cert(), CONST10)

    def test_t_prime_clamps_to_zero(self):
        # M = 2, C = 1: 8 (log 2 - 0.5 log 5) < 0, clamped
        assert t_prime(cert(), CONST2) == 0.0
        assert t_prime_second_term_clamped(cert(), CONST2)

    def test_t_prime_respects_T(self):
        assert t_prime(cert(T=3.0), CONST2) == 3.0

    def test_k_prime(self):
        # undefined when M(1) <= sqrt(5C)
        assert k_prime(cert(), CONST2) is None
        want = 1.0 / (math.log(10.0) - 0.5 * math.log(5.0))
        assert k_prime(cert(), CONST10) == pytest.approx(want, rel=1e-12)


class TestDecayRate:
    def test_requires_t_above_threshold(self):
        with pytest.raises(ValueError) as info:
            decay_rate(cert(), CONST10, [10.0])
        assert "59.91" in str(info.value)

    def test_opt_inside_branch(self):
        res = decay_rate(cert(), CONST2, [8.0])[0]
        assert res.branch == "opt_inside"
        assert res.R_used == res.R_opt
        assert math.isinf(res.R_rule_t)
        assert res.bound == pytest.approx(bound_B(cert().C, CONST2(res.R_opt), 8.0, res.R_opt), rel=1e-14)
        assert res.rate_shape == pytest.approx(1.0 / res.R_opt, rel=1e-14)

    def test_cutoff_limited_branch(self):
        ins = cert(rule=CutoffRule("constant", 2.0))
        res = decay_rate(ins, CONST2, [20.0])[0]  # R_opt(20) ~ 13.6 > 2
        assert res.branch == "cutoff_limited"
        assert res.R_used == 2.0
        assert res.bound == pytest.approx(bound_B(ins.C, CONST2(2.0), 20.0, 2.0), rel=1e-14)
        assert res.rate_shape == pytest.approx(0.5, rel=1e-14)

    def test_branch_consistency_is_exact(self):
        # branch says cutoff_limited exactly when R_opt > R_rule(t)
        ins = cert(rule=CutoffRule("constant", 5.0))
        for t in np.linspace(1.0, 40.0, 25):
            res = decay_rate(ins, CONST2, [t])[0]
            assert (res.branch == "cutoff_limited") == (res.R_opt > res.R_rule_t)

    def test_bound_monotone_in_time(self):
        for M in (GrowthBound("constant", 2.0), GrowthBound("affine", 1.2),
                  GrowthBound("power", 1.0, alpha=0.8)):
            tp = t_prime(cert(), M)
            ts = np.linspace(tp + 1.0, tp + 90.0, 60)
            bounds = [decay_rate(cert(), M, [t])[0].bound for t in ts]
            assert np.all(np.diff(bounds) < 0), M

    def test_near_optimality_factor_three(self):
        # the chosen radius is within factor 3 of the grid-best bound
        presets = [GrowthBound("constant", 2.0), GrowthBound("affine", 1.2),
                   GrowthBound("log", 1.5, beta=2.0), GrowthBound("power", 1.0, alpha=0.8)]
        for M in presets:
            for t in (10.0, 50.0, 200.0):
                if t <= t_prime(cert(), M):
                    continue
                res = decay_rate(cert(), M, [t])[0]
                grid = np.geomspace(1.0, 10.0 * res.R_opt, 200)
                best = min(bound_B(cert().C, M(float(R)), t, float(R)) for R in grid)
                assert res.bound <= 3.0 * best, (M, t)

    def test_exp_cutoff_small_time(self):
        # with the e^t cap the optimizer loses at small t and the branch flips
        ins = cert(C=math.e, rule=CutoffRule("exp_t"))
        M = GrowthBound("affine", 1.25)
        res_small = decay_rate(ins, M, [0.5])[0]
        assert res_small.R_rule_t == pytest.approx(math.exp(0.5), rel=1e-14)
        res_large = decay_rate(ins, M, [12.0])[0]
        assert res_large.branch == "opt_inside"


class TestRateGrid:
    """A grid of times goes through one inversion and gives one result per time."""

    def test_grid_equals_one_call_per_time(self):
        for rule in (CutoffRule("infinite"), CutoffRule("constant", 5.0), CutoffRule("exp_t")):
            ins, M = cert(rule=rule), GrowthBound("affine", 1.2)
            ts = np.linspace(1.0, 60.0, 40)
            assert decay_rate(ins, M, ts) == [decay_rate(ins, M, [t])[0] for t in ts]
            np.testing.assert_array_equal(r_opt(ins, M, ts),
                                          [r_opt(ins, M, [t])[0] for t in ts])

    def test_empty_grid(self):
        assert decay_rate(cert(), CONST2, np.asarray([])) == []

    def test_error_carries_position(self):
        with pytest.raises(ValueError, match="got t = 30.0") as info:  # T' ~ 59.91
            decay_rate(cert(), CONST10, np.asarray([70.0, 30.0, 20.0]))
        assert info.value.index == 1
        with pytest.raises(ValueError, match="t > 0") as info:
            r_opt(cert(), CONST2, np.asarray([1.0, 2.0, 0.0]))
        assert info.value.index == 2

    def test_one_inversion_per_grid(self, inversion_sizes):
        decay_rate(cert(), CONST2, np.linspace(1.0, 50.0, 50))
        assert inversion_sizes == [50]


BATCH_ENTRIES = {
    "weighted_partial_grid": lambda z: weighted_partial_grid(jump_integrator([(1.0, 1.0)]), z,
                                                             [0.0, 2.0]),
    "weighted_tail_grid": lambda z: weighted_tail_grid(jump_integrator([(1.0, 1.0)]), z,
                                                       [0.0, 2.0], 3.0),
    "improper_laplace": lambda z: improper_laplace(jump_integrator([(1.0, 1.0)]), z, cert()),
    "r_opt": lambda t: r_opt(cert(), CONST2, t),
    "decay_rate": lambda t: decay_rate(cert(), CONST2, t),
    "m_log_inverse": lambda y: m_log_inverse(CONST2, 1.0, y),
}


@pytest.mark.parametrize("name", BATCH_ENTRIES)
@pytest.mark.parametrize("arg", [8.0, np.full((2, 2), 8.0)], ids=["0-d", "2-d"])
def test_batch_entry_takes_only_a_1d_array(name, arg):
    BATCH_ENTRIES[name]([8.0])  # the 1-d form of the same value is accepted
    with pytest.raises(ValueError, match=f"^{name} takes a 1-d array"):
        BATCH_ENTRIES[name](arg)
