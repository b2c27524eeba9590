"""The norms used throughout on values in C^d.

Integrators take values in C^d, held as (d,) complex numpy arrays; rows of
an (m, d) array are m such values.  Everything downstream only needs
addition, scalar multiplication and a norm, so this module is deliberately
tiny.
"""

from __future__ import annotations

import numpy as np

NORM_KINDS = ("euclidean", "sup")


def vector_norm(values: np.ndarray, norm_kind: str = "euclidean") -> np.ndarray | float:
    """Norm of a (d,) vector or row-wise norms of an (m, d) array."""
    a = np.asarray(values)
    if norm_kind == "euclidean":
        return np.linalg.norm(a, axis=-1)
    if norm_kind == "sup":
        return np.max(np.abs(a), axis=-1)
    raise ValueError(f"unknown norm kind {norm_kind!r}; expected one of {NORM_KINDS}")
