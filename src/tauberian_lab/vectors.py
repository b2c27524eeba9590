"""The one norm used throughout on values in C^d, and the one shape of a batch argument.

Integrators take values in C^d, held as (d,) complex numpy arrays; rows of
an (m, d) array are m such values.  Everything downstream only needs
addition, scalar multiplication and a norm, so this module is deliberately
tiny, and ``vector_norm`` is the only place in the package that computes a
norm: every sup, variation sum and remainder bound reads it.

The euclidean norm forms the squares (a.conj() * a).real exactly as
np.linalg.norm does and adds the d columns left to right.  Below 8 terms
numpy's row reduction is that same left-to-right loop (its pairwise
summation only groups blocks of 8 or more), so for d < 8 every result is
bitwise np.linalg.norm(a, axis=-1), on contiguous, reversed and strided rows
alike; from d = 8 the left-to-right sum may differ from numpy's grouping in
the last bits.  A square underflows below about 1e-154 and overflows above
about 1e154.  So when numpy reports an underflow, overflow or invalid
operation in these few array operations (through np.errstate's call mode,
not a warning), each row whose plain norm lies outside [2^-500, 2^500]
while all its entries are finite is recomputed from its entries scaled by
a power of two near its largest part; a row holding inf or nan keeps the
plain result.  When nothing is reported, no square lost a digit, and every
row keeps numpy's value; an exact zero row reports nothing.
The sup norm takes np.abs of the array as given (|x + iy| is formed without
squares, so it needs no scaling) and then the max column by column, bitwise
np.max(np.abs(a), axis=-1) for every d.

``one_d`` is the shape rule of every batch entry (the weighted sweeps,
improper_laplace, m_log_inverse, r_opt and decay_rate): a 1-d array in, one
result per element out, and any other shape refused in the entry's name.
"""

from __future__ import annotations

import numpy as np

NORM_KINDS = ("euclidean", "sup")

# plain euclidean norms inside this range lost nothing to their squares
_TINY, _HUGE = 2.0 ** -500, 2.0 ** 500


def one_d(values, dtype, caller: str) -> np.ndarray:
    """values as a 1-d array of dtype; any other shape is refused in caller's name."""
    out = np.asarray(values, dtype=dtype)
    if out.ndim != 1:
        raise ValueError(f"{caller} takes a 1-d array, got shape {out.shape}")
    return out


def vector_norm(values: np.ndarray, norm_kind: str = "euclidean") -> np.ndarray | float:
    """Norm of a (d,) vector or row-wise norms of an (m, d) array."""
    a = np.asarray(values)
    if a.dtype.kind not in "fc":
        a = a.astype(float)
    if norm_kind == "sup":
        moduli = np.abs(a)
        norm = moduli[..., 0]
        for j in range(1, a.shape[-1]):
            norm = np.maximum(norm, moduli[..., j])
        return norm[()]
    if norm_kind != "euclidean":
        raise ValueError(f"unknown norm kind {norm_kind!r}; expected one of {NORM_KINDS}")
    reported = []
    with np.errstate(all="call", call=lambda kind, flag: reported.append(kind)):
        norm = np.sqrt(_sum_of_squares(a))
        if reported:
            norm = _rescaled(a, norm)
    return norm


def _sum_of_squares(a: np.ndarray) -> np.ndarray:
    """sum_j |a_j|^2 along the last axis, squared as by np.linalg.norm, added left to right."""
    squares = np.conjugate(a)  # a new array, so the products and sums may go into it
    # numpy's in-place complex product rounds a lone element unlike the same element among
    # others, so that one takes a new array, or a row's norm would depend on the rows beside it
    squares = (squares * a if squares.size == 1 else np.multiply(squares, a, out=squares)).real
    total = squares[..., 0]
    for j in range(1, a.shape[-1]):
        total += squares[..., j]
    return total


def _rescaled(a: np.ndarray, norm) -> np.ndarray | float:
    """norm with each row outside [_TINY, _HUGE] whose entries are finite recomputed from
    its entries times 2^-e, e the exponent of its largest part clipped to [-1000, 1000]
    (a row of zeros keeps 0)."""
    rows = a.reshape(-1, a.shape[-1])
    out = np.array(norm, dtype=float).reshape(-1)
    redo = np.flatnonzero(~((out >= _TINY) & (out <= _HUGE)))
    sub = rows[redo]
    finite = np.isfinite(sub).all(axis=-1)
    redo, sub = redo[finite], sub[finite]
    peak = np.maximum(np.abs(sub.real).max(axis=-1, initial=0.0),
                      np.abs(sub.imag).max(axis=-1, initial=0.0))
    scale = np.ldexp(1.0, -np.clip(np.frexp(peak)[1], -1000, 1000))
    out[redo] = np.sqrt(_sum_of_squares(sub * scale[:, None])) / scale
    return out.reshape(np.shape(norm))[()]
