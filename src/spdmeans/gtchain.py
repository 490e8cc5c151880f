"""Golden-Thompson complement chain.

For Hermitian X, Y and r > 0 the two chain functions

    phi(r) = (e^{rX} #  e^{rY})^{2/r}
    psi(r) = (e^{rX} @  e^{rY})^{2/r}

bracket e^{X+Y} in log-majorization: phi decreases and psi increases in r,
both tend to e^{X+Y} as r -> 0, and their traces sandwich tr e^{X+Y}.
``scan_chain`` evaluates both on a whole r grid in one stacked pass, and
``phi``, ``psi`` and ``golden_thompson_refinement`` read from a scan;
``evaluate_chain`` turns a scan into pass/fail margins, one per predicate
family and grid point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, ParamOutOfRange
from .linalg import (
    HermitianMatrix,
    SpdMatrix,
    eig_hermitian,
    eigh_stack,
    mat_exp,
    require_positive,
)
from .majorization import ROUNDOFF_BAND, default_tol, log_majorization_report
from .means import _MeanPair, _assemble, _pow

DEFAULT_R_GRID = tuple(2.0 ** k for k in range(-6, 4))

def _check_xy(x: HermitianMatrix, y: HermitianMatrix) -> None:
    if not isinstance(x, HermitianMatrix) or not isinstance(y, HermitianMatrix):
        raise ParamOutOfRange("chain functions take Hermitian matrices")
    if x.n != y.n:
        raise DimensionMismatch(f"dimension mismatch: {x.n} vs {y.n}")


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

    One stacked ``_MeanPair`` holds (e^{rX}, e^{rY}) for every r, and the
    powers 2/r come from one stacked decomposition of both means.
    """
    _check_xy(x, y)
    grid = tuple(float(r) for r in r_grid)
    if len(grid) == 0:
        raise ParamOutOfRange("r grid must be nonempty")
    if any(not r > 0.0 for r in grid) or any(
        b <= a for a, b in zip(grid, grid[1:])
    ):
        raise ParamOutOfRange("r grid must be positive and strictly increasing")
    r = np.array(grid)
    eig_x, eig_y = eig_hermitian(x), eig_hermitian(y)
    exp_x = np.exp(r[:, None] * eig_x.values)
    exp_y = np.exp(r[:, None] * eig_y.values)
    pair = _MeanPair(
        _assemble(eig_x.vectors.mat, exp_x), _assemble(eig_y.vectors.mat, exp_y)
    )
    # A starts from X's decomposition: a fresh eigh of e^{rX} at large r can
    # come out numerically indefinite.
    pair._eig_a = (exp_x, eig_x.vectors.mat)
    vals, q = eigh_stack(np.stack([pair.sharps([0.5])[:, 0], pair.naturals([0.5])[:, 0]]))
    expo = 2.0 / r
    # As mat_pow does, check positivity only where 2/r is not an integer.
    frac = expo % 1.0 != 0.0
    require_positive(vals[:, frac], "matrix is numerically not positive definite")
    phi_mats, psi_mats = (
        [SpdMatrix._from_eig(qi, vi) for qi, vi in zip(q[k], _pow(vals[k], expo[:, None]))]
        for k in (0, 1)
    )
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
    monotonicity check carries the larger r of its grid step.

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
    checks = []

    def add(name: str, r: float, lower, upper) -> None:
        rep = log_majorization_report(lower, upper)
        checks.append(ChainCheck(name, r, rep.worst_margin, ROUNDOFF_BAND * rep.tol))

    for r, lam_phi, lam_psi in zip(scan.r_grid, phis, psis):
        add("phi_below_exp_sum", r, lam_phi, mid)
        add("psi_above_exp_sum", r, mid, lam_psi)
    for r, prev, cur in zip(scan.r_grid[1:], phis, phis[1:]):
        add("phi_decreasing", r, cur, prev)
    for r, prev, cur in zip(scan.r_grid[1:], psis, psis[1:]):
        add("psi_increasing", r, prev, cur)

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


def golden_thompson_refinement(
    x: HermitianMatrix, y: HermitianMatrix, r_values=(0.5, 1.0)
) -> list:
    """Sandwich tr e^{X+Y} <= tr psi(r) <= tr e^X e^Y for 0 < r <= 1.

    At r = 1 the upper end is exact: tr psi(1) = tr e^X e^Y, recovering the
    classical trace inequality; smaller r tightens the upper bound.
    Returns (r, tr e^{X+Y}, tr psi(r), tr e^X e^Y) rows, one per r value in
    the order given; the traces come from one scan over the distinct values.
    """
    _check_xy(x, y)
    r_values = [float(r) for r in r_values]
    if any(not (0.0 < r <= 1.0) for r in r_values):
        raise ParamOutOfRange("refinement holds for r in (0, 1]")
    if not r_values:
        return []
    grid = sorted(set(r_values))
    traces = dict(zip(grid, scan_chain(x, y, grid).traces))
    tr_prod = float(np.trace(mat_exp(x).mat @ mat_exp(y).mat).real)
    return [(r, traces[r][2], traces[r][1], tr_prod) for r in r_values]
