"""Golden-Thompson complement chain.

For Hermitian X, Y and r > 0 the two chain functions

    phi(r) = (e^{rX} #  e^{rY})^{2/r}
    psi(r) = (e^{rX} @  e^{rY})^{2/r}

bracket e^{X+Y} in log-majorization: phi decreases and psi increases in r,
both tend to e^{X+Y} as r -> 0, and their traces sandwich tr e^{X+Y}.
``scan_chain`` evaluates both on a whole r grid (r >= ``MIN_R``) in one
stacked pass into a ``ChainScan``: the matrices, their spectra stacked
(R, n) and the traces (R, 3).  ``phi``, ``psi`` and
``refinement_from_scan`` read from a scan; ``evaluate_chain`` turns a scan
into a ``ChainReport``, the family, r, margin and tolerance of every check
as four aligned arrays: the checks laid out once by ``_chain_layout``,
their log-majorization margins from one stacked reduction.  phi, psi,
e^{X+Y} and e^X, e^Y are ``SpdMatrix`` objects, and every ``SpdMatrix``
has condition number below 1e12, else DomainError; so must e^{rX} and
e^{rY} at each r of a scan, else DomainError naming the first of them and
its r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParamOutOfRange
from .linalg import (
    HermitianMatrix,
    SpdMatrix,
    _pow,
    eig_hermitian,
    mat_exp,
    require_exp_range,
    require_same_dimension,
    require_spd_range,
)
from .majorization import default_tol, log_majorization_margins
from .means import _gram_root, _MeanPair

DEFAULT_R_GRID = tuple(2.0 ** k for k in range(-6, 4))
# The least r of a scan: sigma^{4/r} multiplies the SVD's relative error by
# 4/r, so below it the chain checks fail from rounding alone.
MIN_R = 2.0 ** -10
# Margins of a chain predicate that fall short by less than this multiple
# of the comparison's tolerance are roundoff, not violations.
ROUNDOFF_BAND = 10.0
# The r of the Golden-Thompson refinement rows, in row order.
REFINEMENT_R = (0.5, 1.0)


def _check_xy(x: HermitianMatrix, y: HermitianMatrix) -> None:
    if not isinstance(x, HermitianMatrix) or not isinstance(y, HermitianMatrix):
        raise ParamOutOfRange("chain functions take Hermitian matrices")
    require_same_dimension(x, y)


def phi(x: HermitianMatrix, y: HermitianMatrix, r: float) -> SpdMatrix:
    """(e^{rX} # e^{rY})^{2/r} for r >= MIN_R, from the one-point scan."""
    return scan_chain(x, y, (r,)).phi_mats[0]


def psi(x: HermitianMatrix, y: HermitianMatrix, r: float) -> SpdMatrix:
    """(e^{rX} @ e^{rY})^{2/r} for r >= MIN_R, from the one-point scan."""
    return scan_chain(x, y, (r,)).psi_mats[0]


@dataclass
class ChainScan:
    """phi/psi matrices over an increasing r grid, their spectra stacked
    (R, n), the spectrum of e^{X+Y} and the traces (R, 3), whose columns
    are (tr phi, tr psi, tr e^{X+Y})."""

    x: HermitianMatrix
    y: HermitianMatrix
    r_grid: tuple
    exp_sum: SpdMatrix
    phi_mats: list
    psi_mats: list
    phi_spectra: np.ndarray
    psi_spectra: np.ndarray
    exp_sum_spectrum: np.ndarray
    traces: np.ndarray


def scan_chain(
    x: HermitianMatrix, y: HermitianMatrix, r_grid=DEFAULT_R_GRID
) -> ChainScan:
    """Evaluate phi, psi and e^{X+Y} over a strictly increasing grid of r >= MIN_R.

    ParamOutOfRange unless the grid is finite, strictly increasing and at
    least ``MIN_R``; DomainError naming the first r at which the scan could
    overflow, then DomainError unless e^{rX} and e^{rY} pass
    ``require_spd_range`` at every r (r * spread(X or Y) below log(1e12)
    = 27.6: past it the means' small eigenvalues are rounding), both
    before any mean is taken.

    The eigenpairs that X and Y hold give one stacked ``_MeanPair`` of
    the roots of (e^{rX}, e^{rY}) for every r, and phi and psi get their
    eigenpairs (U, sigma^{4/r}) from one SVD U sigma W* of the two means'
    factors.
    """
    _check_xy(x, y)
    grid = tuple(float(r) for r in r_grid)
    if len(grid) == 0:
        raise ParamOutOfRange("r grid must be nonempty")
    if not np.isfinite(grid).all():
        raise ParamOutOfRange("r grid must be finite")
    if grid[0] < MIN_R or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ParamOutOfRange(f"r grid must be strictly increasing from MIN_R = 2^-10 = {MIN_R:g} "
                              "up: below it the chain fails from rounding alone")
    r, n, m = np.array(grid), x.n, len(grid)
    eig_x, eig_y = eig_hermitian(x), eig_hermitian(y)
    # In exact arithmetic every exponential, product, power and e^{X+Y} of
    # the scan is bounded by e^{max(1, r) (max |lambda(X)| + max |lambda(Y)|)}.
    bound = np.maximum(1.0, r) * (np.abs(eig_x.values).max() + np.abs(eig_y.values).max())
    require_exp_range(bound, lambda k: f"the scan overflows at r = {grid[k]:g}: max(1, r) "
                      "(max |eig X| + max |eig Y|)")
    roots = [(np.exp(0.5 * r[:, None] * e.values), e.vectors) for e in (eig_x, eig_y)]
    require_spd_range(np.concatenate([root for root, _ in roots]) ** 2, lambda k: (
        f"e^{{r{'XY'[k // m]}}} at r = {grid[k % m]:g} is not positive "
        "definite to working precision: eigenvalues in"))
    pair = _MeanPair(*roots)
    factors = zip(pair.sharp_factors([0.5]), pair.natural_factors([0.5]))
    sig, q = _gram_root(*(np.stack(parts)[:, :, 0] for parts in factors))
    # Far outside the range sigma^{4/r} can overflow; inf fails the SPD range.
    with np.errstate(over="ignore"):
        vals = _pow(sig, 4.0 / r[:, None])
    mats, stack, spectra = SpdMatrix._from_eigs(
        q.reshape(-1, n, n), vals.reshape(-1, n),
        "phi or psi is not positive definite to working precision: eigenvalues in")
    exp_sum = mat_exp(HermitianMatrix._wrap(x.mat + y.mat))
    tr_exp = np.full(m, np.trace(exp_sum.mat).real)
    traces = np.column_stack([*np.trace(stack, axis1=1, axis2=2).real.reshape(2, m), tr_exp])
    return ChainScan(x, y, grid, exp_sum, mats[:m], mats[m:], *spectra.reshape(2, m, n),
                     eig_hermitian(exp_sum).values, traces)


# The chain check families, by the family index of a ``ChainReport``: the
# log-majorization checks', then the trace checks', each in
# ``_chain_layout``'s order.
CHAIN_FAMILIES = ("phi_below_exp_sum", "psi_above_exp_sum", "phi_decreasing", "psi_increasing",
                  "trace_phi_below", "trace_psi_above", "trace_phi_decreasing",
                  "trace_psi_increasing")


@dataclass
class ChainReport:
    """Every chain check of a scan as four aligned arrays, in
    ``evaluate_chain``'s order: ``family`` indexes ``CHAIN_FAMILIES``, ``r``
    is the check's grid point (a grid step's check carries its larger r),
    and a check holds iff its ``margin >= -tol``."""

    family: np.ndarray
    r: np.ndarray
    margin: np.ndarray
    tol: np.ndarray

    @property
    def holds(self) -> np.ndarray:
        return self.margin >= -self.tol

    @property
    def passed(self) -> bool:
        return bool(self.holds.all())

    @property
    def worst(self) -> int:
        """Index of the check with the least margin + tol; the first on a tie."""
        return int(np.argmin(self.margin + self.tol))


def _chain_layout(r_grid: tuple, phis: np.ndarray, psis: np.ndarray, mid) -> tuple:
    """Family index, r, lower and upper operand of every chain check, in
    report order: per r, phi below and psi above e^{X+Y}; then per grid
    step, carrying its larger r, phi decreasing and psi increasing.  phis
    and psis stack one operand per r, mid is that of e^{X+Y}; all four
    come back as arrays, the operands stacked (4R - 2, ...)."""
    m = len(r_grid)
    rows = [row for k, r in enumerate(r_grid) for row in ((0, r, k, 2 * m), (1, r, 2 * m, m + k))]
    rows += [(2, r_grid[k], k, k - 1) for k in range(1, m)]
    rows += [(3, r_grid[k], m + k - 1, m + k) for k in range(1, m)]
    family, rs, lower, upper = (np.array(col) for col in zip(*rows))
    operands = np.concatenate([phis, psis, [mid]])
    return family, rs, operands[lower], operands[upper]


def evaluate_chain(scan: ChainScan) -> ChainReport:
    """Margins for every chain predicate on a scan, upper minus lower
    operand of ``_chain_layout``: its 4R - 2 log-majorization checks of
    the spectra, then its 4R - 2 checks of the traces, whose family index
    is 4 above.

    Chain predicates are exact theorems, so a log-majorization check passes
    within the roundoff band (``ROUNDOFF_BAND`` times its tolerance), all
    from one ``log_majorization_margins`` reduction; a trace check passes
    within ``default_tol`` of every trace.
    """
    family, rs, lower, upper = _chain_layout(
        scan.r_grid, scan.phi_spectra, scan.psi_spectra, scan.exp_sum_spectrum)
    worst, slack = log_majorization_margins(lower, upper)
    _, _, tr_lower, tr_upper = _chain_layout(scan.r_grid, *scan.traces[:, :2].T,
                                             scan.traces[0, 2])
    return ChainReport(
        family=np.concatenate([family, family + 4]),
        r=np.concatenate([rs, rs]),
        margin=np.concatenate([worst, tr_upper - tr_lower]),
        tol=np.concatenate([ROUNDOFF_BAND * slack, np.full(len(rs), default_tol(scan.traces))]),
    )


def trotter_distances(scan: ChainScan) -> list:
    """Max-norm distances of phi(r) and psi(r) from e^{X+Y} per grid point,
    as rows (r, d_phi, d_psi).

    Both shrink to zero as r -> 0 (Lie-Trotter).  The decrease need not be
    monotone from one grid point to the next: on a halving grid the distance
    can rise between neighbouring r before it falls.
    """
    mats = np.array([m.mat for m in scan.phi_mats + scan.psi_mats])
    dists = np.abs(mats - scan.exp_sum.mat).max(axis=(1, 2)).reshape(2, -1)
    return list(zip(scan.r_grid, *dists.tolist()))


def refinement_from_scan(scan: ChainScan) -> list:
    """Rows (r, tr e^{X+Y}, tr psi(r), tr e^X e^Y) of the Golden-Thompson
    refinement tr e^{X+Y} <= tr psi(r) <= tr e^X e^Y, one per r of
    ``REFINEMENT_R`` in that order; ParamOutOfRange unless the scan's grid
    holds each.  At r = 1 the upper end is exact, the classical trace
    inequality."""
    traces = dict(zip(scan.r_grid, scan.traces.tolist()))
    if any(r not in traces for r in REFINEMENT_R):
        raise ParamOutOfRange(f"the scan's grid must hold the refinement r values {REFINEMENT_R}")
    tr_prod = float(np.trace(mat_exp(scan.x).mat @ mat_exp(scan.y).mat).real)
    return [(r, traces[r][2], traces[r][1], tr_prod) for r in REFINEMENT_R]
