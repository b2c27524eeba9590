"""Dirichlet-series partial sums as a stress test for the decay machinery.

A coefficient source is a table of rows b_1, ..., b_q (a (q, d) complex
array), repeated past its end: the named rules are the tables [1, -1] and
[1], a periodic source is its own table, and a file's table is read once and
must hold at least n_max rows.  The table induces the pure-jump integrator

    A(t) = sum_{log n < t} b_n / n,

whose transform is the Dirichlet series sum b_n n^{-(z+1)}.  Summation by
parts gives the certificate constant C = e * max(sup_{n <= n_max} ||b_n||, 1)
with x0 = 1 and cutoff R(t) = e^t, so the generic decay bound applies verbatim
and can be measured against the true partial sums.  The limit f(0) that
partial_sum_decay measures against is the problem's own f0: computed for the
alternating rule, else given as f0 in the problem file's dirichlet block
(load_problem sets both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bv import BVFunction
from .growth import CutoffRule, GrowthBound
from .rates import decay_rate, t_prime
from .transform import TauberianCertificate
from .vectors import vector_norm

# jumps of an instance when neither the caller nor the problem file gives n_max
DEFAULT_N_MAX = 1_000_000


@dataclass(frozen=True)
class DirichletInstance:
    """What only a Dirichlet problem has: its source's description, n_max and the source of f0."""

    coefficients: str
    n_max: int
    f0_provenance: str | None

    @property
    def t_max(self) -> float:
        """Largest time at which the truncated integrator is faithful."""
        return math.log(self.n_max)


def read_coefficients(path) -> np.ndarray:
    """The (rows, d) table of a coefficient file: one b_n per line, whitespace-separated
    re im pairs.

    Every data line must carry the same number of pairs (the vector
    dimension); blank lines and lines starting with '#' are skipped.
    """
    rows: list[list[complex]] = []
    width = None
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) % 2 != 0:
            raise ValueError(
                f"{path}:{lineno}: expected re/im pairs, got {len(tokens)} numbers")
        try:
            nums = [float(tok) for tok in tokens]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        for tok, num in zip(tokens, nums):
            if not math.isfinite(num):
                raise ValueError(f"{path}:{lineno}: expected finite numbers, got {tok!r}")
        row = [complex(nums[i], nums[i + 1]) for i in range(0, len(nums), 2)]
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(
                f"{path}:{lineno}: expected {width} coefficient components, got {len(row)}")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no coefficients found")
    return np.asarray(rows, dtype=complex)


def build_instance(table: np.ndarray, n_max: int = DEFAULT_N_MAX,
                   norm_kind: str = "euclidean") -> tuple[BVFunction, TauberianCertificate]:
    """The first n_max jumps of the table, repeated, and the summation-by-parts certificate."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    n = np.arange(1.0, n_max + 1.0)
    times = np.log(n)
    table = table[:n_max]
    sizes = np.tile(table, (-(-n_max // table.shape[0]), 1))[:n_max]
    # b_n / n as each part times fl(1/n), as numpy divides a complex by n + 0i
    parts = sizes.view(float)
    parts *= np.divide(1.0, n, out=n)[:, None]
    bv = BVFunction(dimension=table.shape[1], jump_times=times,
                    jump_sizes=sizes, pieces=(), norm_kind=norm_kind, table=table)
    sup = float(np.max(vector_norm(table, norm_kind)))
    cert = TauberianCertificate(C=max(sup, 1.0) * math.e, x0=1.0, T=0.0,
                                R_rule=CutoffRule("exp_t"))
    return bv, cert


def partial_sum_decay(bv: BVFunction, f0: np.ndarray, cert: TauberianCertificate,
                      M: GrowthBound, t_grid, t_max: float) -> list[tuple]:
    """Measured ||A(t) - f(0)|| against the generic bound on a t grid, for a pure-jump A.

    Each row is (t, decay_norm, bound_B, margin).  Rows where t <= T' carry
    nan bounds (the guarantee only starts past T'); the decay norm itself is
    always reported.  A t past t_max, where the truncated jump list is not
    faithful, is refused.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size and float(t_grid.max()) > t_max + 1e-12:
        raise ValueError(
            f"t = {float(t_grid.max()):g} exceeds log(n_max) = {t_max:.6g}; "
            "the truncated jump list is not faithful there")

    prefix = np.empty((bv.jump_sizes.shape[0] + 1, bv.dimension), dtype=complex)
    prefix[0] = 0.0
    np.cumsum(bv.jump_sizes, axis=0, out=prefix[1:])
    idx = np.searchsorted(bv.jump_times, t_grid, side="left")
    decay = np.asarray(vector_norm(prefix[idx] - f0[None, :], bv.norm_kind), dtype=float)

    above = t_grid > t_prime(cert, M)
    bounds = iter(res.bound for res in decay_rate(cert, M, t_grid[above]))
    rows = []
    for t, d, up in zip(t_grid.tolist(), decay.tolist(), above.tolist()):
        bound = next(bounds) if up else math.nan
        rows.append((t, d, bound, bound - d))
    return rows
