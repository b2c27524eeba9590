"""Dirichlet-series partial sums as a stress test for the decay machinery.

A coefficient sequence b_1, b_2, ... induces the pure-jump integrator

    A(t) = sum_{log n < t} b_n / n,

whose transform is the Dirichlet series sum b_n n^{-(z+1)}.  Summation by
parts gives the certificate constant C = e * max(sup ||b_n||, 1) with x0 = 1
and cutoff R(t) = e^t, so the generic decay bound applies verbatim and can be
measured against the true partial sums.  Every coefficient source is a table
of rows b_n: the named rules and periodic sources repeat theirs, a file's is
read once and must be long enough.  The limit f(0) that partial_sum_decay
measures against is the instance's own f0: computed for the alternating rule,
else given as f0 in the problem file's dirichlet block (load_problem stores it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bv import BVFunction
from .growth import CutoffRule, GrowthBound
from .oracles import log_two
from .rates import decay_rate, t_prime
from .transform import TauberianCertificate
from .vectors import vector_norm

COEFFICIENT_KINDS = ("alternating", "ones", "periodic", "file")
# jumps of an instance when neither the caller nor the problem file gives n_max
DEFAULT_N_MAX = 1_000_000


@dataclass(frozen=True)
class CoefficientSequence:
    """b_n source: a table of rows b_1, b_2, ..., repeated unless it came from a file."""

    kind: str
    table: np.ndarray
    source: str = ""

    def __post_init__(self):
        if self.kind not in COEFFICIENT_KINDS:
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.table.size == 0:
            raise ValueError(f"{self.kind} coefficients need a nonempty table")

    @staticmethod
    def from_file(path) -> "CoefficientSequence":
        """One coefficient per line: whitespace-separated re im pairs.

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
        return CoefficientSequence("file", table=np.asarray(rows, dtype=complex),
                                   source=str(path))

    @property
    def dimension(self) -> int:
        return int(self.table.shape[1])

    @property
    def max_n(self) -> int | None:
        """Largest index available (file sources only)."""
        return int(self.table.shape[0]) if self.kind == "file" else None

    def sup_norm(self, norm_kind: str = "euclidean") -> float:
        return float(np.max(vector_norm(self.table, norm_kind)))

    def describe(self) -> str:
        if self.kind == "periodic":
            return f"periodic(period={self.table.shape[0]})"
        if self.kind == "file":
            return f"file({self.source}, n={self.table.shape[0]})"
        return self.kind


@dataclass(frozen=True)
class DirichletInstance:
    coefficients: CoefficientSequence
    n_max: int
    bv: BVFunction
    certificate: TauberianCertificate
    f0: np.ndarray | None
    f0_provenance: str | None

    @property
    def t_max(self) -> float:
        """Largest time at which the truncated integrator is faithful."""
        return math.log(self.n_max)


def build_instance(coeffs: CoefficientSequence, n_max: int = DEFAULT_N_MAX,
                   norm_kind: str = "euclidean") -> DirichletInstance:
    """Materialize the first n_max jumps and the summation-by-parts certificate."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    limit = coeffs.max_n
    if limit is not None and n_max > limit:
        raise ValueError(
            f"coefficient source only provides {limit} values; lower n_max")
    n = np.arange(1.0, n_max + 1.0)
    times = np.log(n)
    table = coeffs.table[:n_max]
    sizes = np.tile(table, (-(-n_max // table.shape[0]), 1))[:n_max]
    # b_n / n as each part times fl(1/n), as numpy divides a complex by n + 0i
    parts = sizes.view(float)
    parts *= np.divide(1.0, n, out=n)[:, None]
    bv = BVFunction(dimension=coeffs.dimension, jump_times=times,
                    jump_sizes=sizes, pieces=(), norm_kind=norm_kind)
    cert = TauberianCertificate(C=max(coeffs.sup_norm(norm_kind), 1.0) * math.e, x0=1.0, T=0.0,
                                R_rule=CutoffRule("exp_t"))
    f0 = None
    provenance = None
    if coeffs.kind == "alternating":
        # limit of sum (-1)^{n+1}/n, computed by series acceleration rather
        # than typed in as a decimal constant
        f0 = np.asarray([complex(log_two())])
        provenance = "accelerated alternating series (64+ digit-stable scheme)"
    return DirichletInstance(coefficients=coeffs, n_max=n_max, bv=bv,
                             certificate=cert, f0=f0, f0_provenance=provenance)


@dataclass(frozen=True)
class DecayRow:
    t: float
    decay_norm: float
    bound_B: float
    margin: float
    branch: str


def partial_sum_decay(instance: DirichletInstance, M: GrowthBound, t_grid) -> list[DecayRow]:
    """Measured ||A(t) - f(0)|| against the generic bound on a t grid, f(0) = instance.f0.

    Rows where t <= T' carry nan bounds (the guarantee only starts past T');
    the decay norm itself is always reported.
    """
    if instance.f0 is None:
        raise ValueError(
            f"coefficient source {instance.coefficients.describe()!r} has no known "
            "limit value; give f0 in the problem file's dirichlet block")
    f0 = np.atleast_1d(np.asarray(instance.f0, dtype=complex))
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size and float(t_grid.max()) > instance.t_max + 1e-12:
        raise ValueError(
            f"t = {float(t_grid.max()):g} exceeds log(n_max) = {instance.t_max:.6g}; "
            "the truncated jump list is not faithful there")

    bv = instance.bv
    prefix = np.concatenate([np.zeros((1, bv.dimension), dtype=complex),
                             np.cumsum(bv.jump_sizes, axis=0)])
    idx = np.searchsorted(bv.jump_times, t_grid, side="left")
    decay = np.asarray(vector_norm(prefix[idx] - f0[None, :], bv.norm_kind), dtype=float)

    cert = instance.certificate
    above = t_grid > t_prime(cert, M)
    results = iter(decay_rate(cert, M, t_grid[above]))
    rows = []
    for t, d, up in zip(t_grid.tolist(), decay.tolist(), above.tolist()):
        if up:
            res = next(results)
            rows.append(DecayRow(t, d, res.bound, res.bound - d, res.branch))
        else:
            rows.append(DecayRow(t, d, math.nan, math.nan, "below_t_prime"))
    return rows

