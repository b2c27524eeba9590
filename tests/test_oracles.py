"""The accelerated eta of the eta_shift extension, cross-checked by brute force."""

import math

import numpy as np
import pytest

from tauberian_lab.contour import MAX_ACCELERATION_TERMS, eta

from exact import alternating_partial_sum


def test_log_two_matches_math():
    assert eta(1.0).real == pytest.approx(math.log(2.0), abs=1e-15)


def test_log_two_matches_brute_force():
    # 1e7-term partial sum carries ~5e-8 truncation error of its own
    brute = alternating_partial_sum(1.0, 10_000_000).real
    assert abs(eta(1.0).real - brute) <= 1e-7


def test_eta_two_is_pi_squared_over_twelve():
    assert eta(2.0).real == pytest.approx(math.pi ** 2 / 12.0, abs=1e-13)
    assert abs(eta(2.0).imag) < 1e-15


def test_eta_complex_matches_partial_sums():
    for s in (2.0 + 1.0j, 1.5 - 0.5j, 3.0 + 2.0j):
        brute = alternating_partial_sum(s, 1_000_000)
        assert abs(eta(s) - brute) <= 1e-9


def test_eta_vectorized_shape():
    s = np.asarray([1.0 + 0j, 2.0 + 0j, 2.0 + 1.0j])
    vals = eta(s)
    assert vals.shape == (3,)
    assert vals[0].real == pytest.approx(math.log(2.0), abs=1e-14)


def test_acceleration_terms_stop_where_the_weights_overflow():
    # the most terms still gives eta(2) to the last digits; one more once gave nan + nan j
    # with only a RuntimeWarning, and from 403 on an OverflowError
    with np.errstate(all="raise"):
        assert abs(eta(2.0, n=MAX_ACCELERATION_TERMS) - math.pi ** 2 / 12.0) <= 1e-14
    for n in (MAX_ACCELERATION_TERMS + 1, 403):
        with pytest.raises(ValueError, match=f"at most {MAX_ACCELERATION_TERMS} terms"):
            eta(2.0, n=n)
