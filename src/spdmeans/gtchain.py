"""Golden-Thompson complement chain.

For Hermitian X, Y and r > 0 the two chain functions

    phi(r) = (e^{rX} #  e^{rY})^{2/r}
    psi(r) = (e^{rX} @  e^{rY})^{2/r}

bracket e^{X+Y} in log-majorization: phi decreases and psi increases in r,
both tend to e^{X+Y} as r -> 0, and their traces sandwich tr e^{X+Y}.
``scan_chain`` evaluates both on a whole r grid in one stacked pass, and
``phi``, ``psi`` and ``refinement_from_scan`` read from a scan;
``evaluate_chain`` turns a scan into pass/fail margins, one per predicate
family and grid point, its log-majorization margins from one stacked
reduction.  phi, psi, e^{X+Y} and e^X, e^Y are ``SpdMatrix`` objects, and
every ``SpdMatrix`` has condition number below 1e12, else DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParamOutOfRange
from .linalg import (
    HermitianMatrix,
    SpdMatrix,
    _pow,
    eig_hermitian,
    eig_hermitian_pair,
    mat_exp,
    require_exp_range,
    require_same_dimension,
)
from .majorization import default_tol, log_majorization_margins
from .means import _gram_root, _MeanPair

DEFAULT_R_GRID = tuple(2.0 ** k for k in range(-6, 4))
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
    """(e^{rX} # e^{rY})^{2/r} for r > 0, from the one-point scan."""
    return scan_chain(x, y, (r,)).phi_mats[0]


def psi(x: HermitianMatrix, y: HermitianMatrix, r: float) -> SpdMatrix:
    """(e^{rX} @ e^{rY})^{2/r} for r > 0, from the one-point scan."""
    return scan_chain(x, y, (r,)).psi_mats[0]


@dataclass
class ChainScan:
    """phi/psi spectra, traces and matrices over an increasing r grid."""

    x: HermitianMatrix
    y: HermitianMatrix
    r_grid: tuple
    exp_sum: SpdMatrix
    phi_mats: list = field(default_factory=list)
    psi_mats: list = field(default_factory=list)
    phi_spectra: list = field(default_factory=list)
    psi_spectra: list = field(default_factory=list)
    traces: list = field(default_factory=list)  # (tr phi, tr psi, tr e^{X+Y})

    @property
    def exp_sum_spectrum(self) -> np.ndarray:
        return eig_hermitian(self.exp_sum).values


def scan_chain(
    x: HermitianMatrix, y: HermitianMatrix, r_grid=DEFAULT_R_GRID
) -> ChainScan:
    """Evaluate phi, psi and e^{X+Y} over a strictly increasing positive grid.

    ParamOutOfRange unless the grid is finite, positive and strictly
    increasing; DomainError naming the first r at which the scan could
    overflow, before any mean is taken.

    One ``eig_hermitian_pair`` of [X, Y] gives one stacked ``_MeanPair`` of
    the roots of (e^{rX}, e^{rY}) for every r, and phi and psi get their
    eigenpairs (U, sigma^{4/r}) from one SVD U sigma W* of the two means'
    factors.
    """
    _check_xy(x, y)
    grid = tuple(float(r) for r in r_grid)
    if len(grid) == 0:
        raise ParamOutOfRange("r grid must be nonempty")
    if any(not r > 0.0 for r in grid) or any(
        b <= a for a, b in zip(grid, grid[1:])
    ):
        raise ParamOutOfRange("r grid must be positive and strictly increasing")
    if not np.isfinite(grid).all():
        raise ParamOutOfRange("r grid must be finite")
    r = np.array(grid)
    eig_x, eig_y = eig_hermitian_pair(x, y)
    # In exact arithmetic every exponential, product, power and e^{X+Y} of
    # the scan is bounded by e^{max(1, r) (max |lambda(X)| + max |lambda(Y)|)}.
    bound = np.maximum(1.0, r) * (np.abs(eig_x.values).max() + np.abs(eig_y.values).max())
    require_exp_range(bound, lambda k: f"the scan overflows at r = {grid[k]:g}: max(1, r) "
                      "(max |eig X| + max |eig Y|)")
    pair = _MeanPair(*[(np.exp(0.5 * r[:, None] * e.values), e.vectors) for e in (eig_x, eig_y)])
    factors = zip(pair.sharp_factors([0.5]), pair.natural_factors([0.5]))
    sig, q = _gram_root(*(np.stack(parts)[:, :, 0] for parts in factors))
    # Far outside the range sigma^{4/r} can overflow; inf fails the SPD range.
    with np.errstate(over="ignore"):
        vals = _pow(sig, 4.0 / r[:, None])
    n, m = x.n, len(grid)
    mats = SpdMatrix._from_eigs(q.reshape(-1, n, n), vals.reshape(-1, n), "phi or psi is not "
                                "positive definite to working precision: eigenvalues in")
    phi_mats, psi_mats = mats[:m], mats[m:]
    exp_sum = mat_exp(HermitianMatrix._wrap(x.mat + y.mat))
    tr_exp = float(np.trace(exp_sum.mat).real)
    traces = [
        (float(np.trace(p.mat).real), float(np.trace(s.mat).real), tr_exp)
        for p, s in zip(phi_mats, psi_mats)
    ]
    spectra = ([eig_hermitian(m).values for m in mats] for mats in (phi_mats, psi_mats))
    return ChainScan(x, y, grid, exp_sum, phi_mats, psi_mats, *spectra, traces)


@dataclass
class ChainCheck:
    """One chain predicate at grid point r with its margin (>= -tol passes).

    ``name`` is the predicate family (``phi_decreasing``, ``trace_psi_above``,
    ...); a family has one check per grid point or grid step.
    """

    name: str
    r: float
    margin: float
    tol: float

    @property
    def holds(self) -> bool:
        return self.margin >= -self.tol


@dataclass
class ChainReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.holds for c in self.checks)

    @property
    def worst(self) -> "ChainCheck":
        return min(self.checks, key=lambda c: c.margin + c.tol)


def evaluate_chain(scan: ChainScan, spectra: tuple | None = None) -> ChainReport:
    """Margins for every chain predicate on a scan.

    Chain predicates are exact theorems, so a log-majorization check passes
    within the roundoff band (``ROUNDOFF_BAND`` times its tolerance); a
    monotonicity check carries the larger r of its grid step.  All 4R - 2
    log-majorization checks of an R-point grid come from one
    ``log_majorization_margins`` reduction.

    ``spectra`` optionally overrides (phi_spectra, psi_spectra,
    exp_sum_spectrum) so an alternative comparator path (e.g. eigenvalue
    moduli of the group elements) can be scored by the same machinery.
    """
    if spectra is None:
        phis, psis, mid = (
            scan.phi_spectra,
            scan.psi_spectra,
            scan.exp_sum_spectrum,
        )
    else:
        phis, psis, mid = spectra
    # One row per log-majorization check, in report order: per r phi below
    # and psi above e^{X+Y}, then phi decreasing, then psi increasing.
    rows = []
    for r, lam_phi, lam_psi in zip(scan.r_grid, phis, psis):
        rows.append(("phi_below_exp_sum", r, lam_phi, mid))
        rows.append(("psi_above_exp_sum", r, mid, lam_psi))
    steps = scan.r_grid[1:]
    rows += [("phi_decreasing", r, cur, prev) for r, prev, cur in zip(steps, phis, phis[1:])]
    rows += [("psi_increasing", r, prev, cur) for r, prev, cur in zip(steps, psis, psis[1:])]
    names, rs, lower, upper = zip(*rows)
    worst, tol = log_majorization_margins(np.array(lower), np.array(upper))
    checks = [
        ChainCheck(name, r, margin, ROUNDOFF_BAND * slack)
        for name, r, margin, slack in zip(names, rs, worst.tolist(), tol.tolist())
    ]

    # Trace chain: tr phi(r) <= tr e^{X+Y} <= tr psi(r), monotone in r.
    trace_tol = default_tol(np.array([t for row in scan.traces for t in row]))
    for r, (tp, ts, te) in zip(scan.r_grid, scan.traces):
        checks.append(ChainCheck("trace_phi_below", r, te - tp, trace_tol))
        checks.append(ChainCheck("trace_psi_above", r, ts - te, trace_tol))
    tr_phi = [row[0] for row in scan.traces]
    tr_psi = [row[1] for row in scan.traces]
    for r, d in zip(scan.r_grid[1:], np.diff(tr_phi)):
        checks.append(ChainCheck("trace_phi_decreasing", r, -float(d), trace_tol))
    for r, d in zip(scan.r_grid[1:], np.diff(tr_psi)):
        checks.append(ChainCheck("trace_psi_increasing", r, float(d), trace_tol))
    return ChainReport(checks=checks)


def trotter_distances(scan: ChainScan) -> list:
    """Max-norm distances of phi(r) and psi(r) from e^{X+Y} per grid point.

    Both shrink to zero as r -> 0 (Lie-Trotter).  The decrease need not be
    monotone from one grid point to the next: on a halving grid the distance
    can rise between neighbouring r before it falls.
    """
    target = scan.exp_sum.mat
    out = []
    for r, pm, sm in zip(scan.r_grid, scan.phi_mats, scan.psi_mats):
        out.append(
            (
                r,
                float(np.abs(pm.mat - target).max()),
                float(np.abs(sm.mat - target).max()),
            )
        )
    return out


def refinement_from_scan(scan: ChainScan) -> list:
    """Rows (r, tr e^{X+Y}, tr psi(r), tr e^X e^Y) of the Golden-Thompson
    refinement tr e^{X+Y} <= tr psi(r) <= tr e^X e^Y, one per r of
    ``REFINEMENT_R`` in that order; ParamOutOfRange unless the scan's grid
    holds each.  At r = 1 the upper end is exact, the classical trace
    inequality."""
    traces = dict(zip(scan.r_grid, scan.traces))
    if any(r not in traces for r in REFINEMENT_R):
        raise ParamOutOfRange(f"the scan's grid must hold the refinement r values {REFINEMENT_R}")
    tr_prod = float(np.trace(mat_exp(scan.x).mat @ mat_exp(scan.y).mat).real)
    return [(r, traces[r][2], traces[r][1], tr_prod) for r in REFINEMENT_R]
