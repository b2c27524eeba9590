"""High-precision oracles for alternating series.

Values like log 2 and eta(2) are never typed in as literals: they are computed
by Chebyshev-style acceleration of the alternating series (the Cohen /
Rodriguez Villegas / Zagier scheme), whose error decays like (3 + sqrt 8)^-n,
and cross-checked in the test suite against brute-force partial sums.
"""

from __future__ import annotations

import math

import numpy as np

# terms of every accelerated sum by default: the error (3 + sqrt 8)^-96 is about 1e-73
ACCELERATION_TERMS = 96
# the most terms whose weights stay finite in float64: from n = 399 on the b recurrence
# overflows (and from 403 on (3 + sqrt 8)^n), which gives nan or an OverflowError
MAX_ACCELERATION_TERMS = 398


def alternating_sum(terms, n: int = ACCELERATION_TERMS):
    """Accelerated value of sum_{k>=0} (-1)^k terms(k).

    terms(k) takes an integer array and may return a float or complex array
    of per-k values, or a 2-d array (len(k), m) to sum m series at once.
    n above MAX_ACCELERATION_TERMS raises a ValueError.
    """
    if n > MAX_ACCELERATION_TERMS:
        raise ValueError(f"the acceleration takes at most {MAX_ACCELERATION_TERMS} terms, got {n}")
    k = np.arange(n)
    a = np.asarray(terms(k))
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    total = np.zeros(a.shape[1:], dtype=a.dtype) if a.ndim > 1 else (0j if np.iscomplexobj(a) else 0.0)
    for j in range(n):
        c = b - c
        total = total + c * a[j]
        b = (j + n) * (j - n) * b / ((j + 0.5) * (j + 1.0))
    return total / d


def eta(s, n: int = ACCELERATION_TERMS):
    """Dirichlet eta(s) = sum_{m>=1} (-1)^{m+1} m^{-s}, scalar or array s.

    The acceleration converges for complex s well into the left of Re s = 1;
    accuracy degrades like e^{pi |Im s| / 2}, which the default n = ACCELERATION_TERMS leaves
    with dozens of spare digits for |Im s| up to ~50.
    """
    return eta_tail(s, 1, n)


def eta_tail(s, first: int, n: int = ACCELERATION_TERMS):
    """sum_{m>=first} (-1)^{m+1} m^{-s} by the same acceleration."""
    if first < 1:
        raise ValueError("tail start must be >= 1")
    s_arr = np.atleast_1d(np.asarray(s, dtype=complex))
    sign = 1.0 if first % 2 == 1 else -1.0

    def terms(k):
        base = (k[:, None] + float(first)).astype(complex)
        return np.exp(-s_arr[None, :] * np.log(base))

    out = sign * alternating_sum(terms, n=n)
    return out if np.ndim(s) else complex(out[0])


def log_two() -> float:
    """log 2 = eta(1), via the acceleration (provenance: computed, not typed)."""
    return float(eta(1.0).real)

