"""Majorization and log-majorization predicates, compound matrices, and
the checks tying them to the two geometric means.

Comparisons are additive in log space after a relative floor: partial sums
of sorted vectors may fall short by at most ``default_tol``, and the totals must
agree within the same slack.  Products spanning many orders of magnitude
make naive relative comparison of partial products useless, which is why
``log_majorizes`` works on logarithms throughout.

``log_majorization_margins`` is the stacked kernel: it compares every row
of two stacks ``(..., n)`` in one reduction and returns each row's worst
margin and slack.  ``majorization_report`` and ``log_majorization_report``
are its one-row views, with the margins in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DomainError, LengthMismatch, NonPositiveEntry, ParamOutOfRange
from .linalg import ComplexMatrix, SpdMatrix
from .means import _check_unit, _MeanPair, rel_residual


# Relative residual bound of the compound-mean commutation identities.
COMPOUND_TOL = 1e-10


def _slack(peak):
    """1e-9 * (1 + peak), for operands whose largest absolute entry is peak."""
    return 1e-9 * (1.0 + peak)


def default_tol(*vectors) -> float:
    """Additive slack 1e-9 * (1 + max absolute entry over all operands)."""
    return _slack(max((float(np.abs(v).max()) for v in vectors if len(v)), default=0.0))


def _margins(x: np.ndarray, y: np.ndarray) -> tuple:
    """Partial-sum margins sum_k y - sum_k x (k = 1..n-1), total gap
    |sum x - sum y| and slack ``default_tol(x_i, y_i)`` of x_i < y_i, for
    every row of two float stacks (..., n): the one margin arithmetic."""
    cx = np.cumsum(np.sort(x)[..., ::-1], axis=-1)
    cy = np.cumsum(np.sort(y)[..., ::-1], axis=-1)
    peak = np.maximum(np.abs(x).max(axis=-1), np.abs(y).max(axis=-1))
    return (cy - cx)[..., :-1], np.abs(cx[..., -1] - cy[..., -1]), _slack(peak)


def _worst(partial: np.ndarray, total_gap):
    """Least margin of each row: its partial margins (none when n = 1) and
    the total's, -total_gap; the row holds iff it is >= -tol."""
    total = 0.0 - total_gap  # +0.0, not -0.0, for equal totals
    if partial.shape[-1]:
        return np.minimum(partial.min(axis=-1), total)
    return total


def _pair(x, y, ndim: int | None = None) -> tuple:
    """x and y as float arrays; LengthMismatch unless their shapes agree,
    with nonempty rows (and ``ndim`` axes when given)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim < 1 or ndim not in (None, x.ndim):
        raise LengthMismatch(f"vector shapes differ: {x.shape} vs {y.shape}")
    if x.shape[-1] == 0:
        raise LengthMismatch("vectors must be nonempty")
    return x, y


def _logs(x: np.ndarray, y: np.ndarray) -> tuple:
    """log x and log y; NonPositiveEntry for an entry <= 0, DomainError for inf or NaN."""
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise NonPositiveEntry("log-majorization needs strictly positive entries")
    lx, ly = np.log(x), np.log(y)
    if not (np.isfinite(lx).all() and np.isfinite(ly).all()):
        raise DomainError("log-majorization needs finite entries")
    return lx, ly


@dataclass
class MajorizationReport:
    """Margins of one x < y comparison (positive margins mean slack)."""

    partial_margins: np.ndarray  # sum_k y - sum_k x for k = 1..n-1
    total_gap: float             # |sum x - sum y|
    tol: float

    @property
    def worst_margin(self) -> float:
        """Least margin across all the defining inequalities: the least
        partial margin and -total_gap."""
        return float(_worst(self.partial_margins, self.total_gap))

    @property
    def holds(self) -> bool:
        """Every margin is at least -tol."""
        return self.worst_margin >= -self.tol


def majorization_report(x, y) -> MajorizationReport:
    """Partial-sum margins for x < y (x majorized by y), slack ``default_tol``;
    DomainError for an inf or NaN entry, which would make the slack inf or
    every comparison false."""
    x, y = _pair(x, y, 1)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError("majorization needs finite entries")
    partial, total_gap, tol = _margins(x, y)
    return MajorizationReport(partial, float(total_gap), float(tol))


def majorizes(x, y) -> bool:
    """True iff x < y: partial sums of x are dominated and totals agree."""
    return majorization_report(x, y).holds


def log_majorization_report(x, y) -> MajorizationReport:
    """Margins of x <_log y, computed as log x < log y."""
    return majorization_report(*_logs(*_pair(x, y, 1)))


def log_majorization_margins(x, y) -> tuple:
    """Worst margin and slack of x_i <_log y_i for every row of two stacks
    of positive vectors, shape (..., n), in one reduction.

    Returns two arrays of shape (...); row i's numbers are bit for bit
    ``log_majorization_report(x_i, y_i).worst_margin`` and ``.tol``.
    LengthMismatch when the shapes differ, NonPositiveEntry when any entry
    is <= 0, DomainError when one is infinite or NaN.
    """
    partial, total_gap, tol = _margins(*_logs(*_pair(x, y)))
    return _worst(partial, total_gap), tol


def log_majorizes(x, y) -> bool:
    """True iff x <_log y: partial products dominated, total products equal."""
    return log_majorization_report(x, y).holds


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


def compound_mean_reports(a: SpdMatrix, b: SpdMatrix, t: float, k_values) -> list:
    """(C_k(A), report) for each k of ``k_values``: the residuals of
    C_k(A #_t B) = C_k(A) #_t C_k(B) and of the same law for the spectral
    mean, with the pair's two means at t taken once for every k."""
    _check_unit("t", t)
    pair = _MeanPair(a, b)
    sharp, natural = pair.sharp(t), pair.natural(t)
    out = []
    for k in k_values:
        ca, cb = (SpdMatrix(compound(m, k).mat) for m in (a, b))
        cpair = _MeanPair(ca, cb)
        sharp_res = rel_residual(compound(sharp, k).mat, cpair.sharp(t).mat)
        natural_res = rel_residual(compound(natural, k).mat, cpair.natural(t).mat)
        out.append((ca, CompoundIdentityReport(k, t, sharp_res, natural_res)))
    return out


def check_compound_mean_identities(
    a: SpdMatrix, b: SpdMatrix, t: float, k: int
) -> CompoundIdentityReport:
    """Residuals of C_k(A #_t B) = C_k(A) #_t C_k(B) and the same law for
    the spectral mean: ``compound_mean_reports`` at the one k."""
    return compound_mean_reports(a, b, t, (k,))[0][1]
