"""Majorization and log-majorization predicates, compound matrices, and
the checks tying them to the two geometric means.

Comparisons are additive in log space after a relative floor: partial sums
of sorted vectors may fall short by at most ``maj_tol``, and the totals must
agree within the same slack.  Products spanning many orders of magnitude
make naive relative comparison of partial products useless, which is why
``log_majorizes`` works on logarithms throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import LengthMismatch, NonPositiveEntry, ParamOutOfRange
from .linalg import ComplexMatrix, SpdMatrix
from .means import _MeanPair, rel_residual


# Relative residual bound of the compound-mean commutation identities.
COMPOUND_TOL = 1e-10


def default_tol(*vectors) -> float:
    """Additive slack 1e-9 * (1 + max absolute entry over all operands)."""
    peak = max((float(np.abs(v).max()) for v in vectors if len(v)), default=0.0)
    return 1e-9 * (1.0 + peak)


@dataclass
class MajorizationReport:
    """Margins of one x < y comparison (positive margins mean slack)."""

    partial_margins: np.ndarray  # sum_k y - sum_k x for k = 1..n-1
    total_gap: float             # |sum x - sum y|
    tol: float

    @property
    def worst_margin(self) -> float:
        """Most negative slack across all the defining inequalities."""
        parts = float(self.partial_margins.min()) if len(self.partial_margins) else 0.0
        return min(parts, self.tol - self.total_gap)

    @property
    def holds(self) -> bool:
        if len(self.partial_margins) and float(self.partial_margins.min()) < -self.tol:
            return False
        return self.total_gap <= self.tol


def majorization_report(x, y, tol: float | None = None) -> MajorizationReport:
    """Partial-sum margins for x < y (x majorized by y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatch(f"vector shapes differ: {x.shape} vs {y.shape}")
    if tol is None:
        tol = default_tol(x, y)
    xs = np.sort(x)[::-1]
    ys = np.sort(y)[::-1]
    cx = np.cumsum(xs)
    cy = np.cumsum(ys)
    return MajorizationReport(
        partial_margins=(cy - cx)[:-1].copy(),
        total_gap=abs(float(cx[-1] - cy[-1])),
        tol=tol,
    )


def majorizes(x, y, tol: float | None = None) -> bool:
    """True iff x < y: partial sums of x are dominated and totals agree."""
    return majorization_report(x, y, tol).holds


def log_majorization_report(x, y, tol: float | None = None) -> MajorizationReport:
    """Margins of x <_log y, computed as log x < log y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatch(f"vector shapes differ: {x.shape} vs {y.shape}")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise NonPositiveEntry("log-majorization needs strictly positive entries")
    lx, ly = np.log(x), np.log(y)
    return majorization_report(lx, ly, tol if tol is not None else default_tol(lx, ly))


def log_majorizes(x, y, tol: float | None = None) -> bool:
    """True iff x <_log y: partial products dominated, total products equal."""
    return log_majorization_report(x, y, tol).holds


def compound(m: ComplexMatrix, k: int) -> ComplexMatrix:
    """k-th multiplicative compound: all k x k minors on lexicographically
    ordered k-subsets (rows by columns)."""
    n = m.n
    if not (1 <= k <= n):
        raise ParamOutOfRange(f"compound order must satisfy 1 <= k <= n, got {k}")
    if k == 1:
        return ComplexMatrix(m.mat)
    subsets = np.array(list(combinations(range(n), k)))
    # blocks[i, j] is the k x k submatrix on rows subsets[i], columns subsets[j].
    blocks = m.mat[subsets[:, None, :, None], subsets[None, :, None, :]]
    return ComplexMatrix(np.linalg.det(blocks))


def compound_spd(m: SpdMatrix, k: int) -> SpdMatrix:
    """Compound of an SPD matrix, which is again SPD."""
    return SpdMatrix(compound(m, k).mat)


@dataclass
class CompoundIdentityReport:
    """Residuals of the compound-mean commutation identities, passed iff
    both are at most COMPOUND_TOL."""

    k: int
    t: float
    sharp_residual: float
    natural_residual: float

    @property
    def passed(self) -> bool:
        return max(self.sharp_residual, self.natural_residual) <= COMPOUND_TOL


def check_compound_mean_identities(
    a: SpdMatrix, b: SpdMatrix, t: float, k: int
) -> CompoundIdentityReport:
    """Residuals of C_k(A #_t B) = C_k(A) #_t C_k(B) and the same law for
    the spectral mean."""
    if not (0.0 <= t <= 1.0):
        raise ParamOutOfRange(f"t must lie in [0, 1], got {t}")
    pair = _MeanPair(a, b)
    ca = compound_spd(a, k)
    cb = compound_spd(b, k)
    cpair = _MeanPair(ca, cb)
    sharp_res = rel_residual(compound(pair.sharp(t), k).mat, cpair.sharp(t).mat)
    natural_res = rel_residual(
        compound(pair.natural(t), k).mat, cpair.natural(t).mat
    )
    return CompoundIdentityReport(
        k=k, t=t, sharp_residual=sharp_res, natural_residual=natural_res
    )
