"""Real symmetric realization SL(n,R)/SO(n).

Everything runs through the complex code path: this layer projects inputs
into the real symmetric traceless subspace, and the orbit solver constrains
its factors to SO(n).  One numerical kernel, two symmetric spaces.
``run_suites_on_realization`` re-runs the means, log-majorization, chain,
pre-order and orbit checks on such inputs and returns the rows of the
``realization`` suite.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .gtchain import evaluate_chain, scan_chain
from .kostant import group_chain_report
from .linalg import HERMITIAN_TOL, HermitianMatrix, SpdMatrix, mat_exp
from .majorization import log_majorization_report
from .means import _MeanPair, mean_identity_suite, spd_det
from .orbit import TARGET_KINDS, OrbitProblem, solve, verify_membership
from .sampling import random_real_symmetric_traceless

TRACE_TOL = 1e-10
ORBIT_TOL = 1e-8


class RealSymmetricTraceless(HermitianMatrix):
    """Element of the SL(n,R) flat: real symmetric with zero trace."""

    __slots__ = ()

    def __init__(self, mat):
        arr = np.asarray(mat, dtype=complex)
        scale = max(1.0, float(np.abs(arr).max()))
        if float(np.abs(arr.imag).max()) > HERMITIAN_TOL * scale:
            raise DomainError("realization requires a real matrix")
        if abs(float(np.trace(arr).real)) > TRACE_TOL * scale:
            raise DomainError("realization requires a traceless matrix")
        super().__init__(arr.real.astype(complex))


def project_to_realization(x: HermitianMatrix) -> RealSymmetricTraceless:
    """Nearest real symmetric traceless matrix: real part, symmetrized,
    trace removed."""
    arr = np.asarray(x.mat).real
    sym = (arr + arr.T) / 2.0
    sym = sym - np.eye(sym.shape[0]) * (np.trace(sym) / sym.shape[0])
    return RealSymmetricTraceless(sym.astype(complex))


def _real_spd_pair(n: int, seed: int) -> tuple[SpdMatrix, SpdMatrix]:
    a = mat_exp(random_real_symmetric_traceless(n, seed))
    b = mat_exp(random_real_symmetric_traceless(n, seed + 104729))
    return a, b


def run_suites_on_realization(
    seed: int = 0, n_values=(2, 3, 4), trials: int = 5
) -> "SuiteResult":
    """Re-run the mean, chain, orbit and pre-order checks on real inputs.

    Each (n, trial) gives eight rows of the ``realization`` suite.  Orbit
    factors are constrained to SO(n); all pass criteria match the complex
    suites.
    """
    # suites imports this module; importing it here also keeps the suites
    # out of a plain ``import spdmeans``.
    from .suites import SuiteResult

    res = SuiteResult("realization", seed)
    for n in n_values:
        for trial in range(trials):
            base = seed + 10007 * trial + 101 * n

            def add(prop, passed, margin):
                res.add(trial, n, None, prop, passed, margin)

            a, b = _real_spd_pair(n, base)
            rep = mean_identity_suite(a, b, 0.3, 0.25, 0.5)
            add("means_identities", rep.passed, rep.max_residual)
            det_a, det_b = spd_det(a), spd_det(b)
            add(
                "unit_determinant",
                abs(det_a - 1.0) < 1e-8 and abs(det_b - 1.0) < 1e-8,
                max(abs(det_a - 1.0), abs(det_b - 1.0)),
            )
            lam_sharp, lam_nat = _MeanPair(a, b).spectra([0.5])
            lm = log_majorization_report(lam_sharp[0], lam_nat[0])
            add("log_majorization", lm.within_roundoff, lm.worst_margin)

            x = random_real_symmetric_traceless(n, base + 1, 0.5)
            y = random_real_symmetric_traceless(n, base + 2, 0.5)
            scan = scan_chain(x, y, tuple(2.0 ** k for k in range(-3, 2)))
            chain_rep = evaluate_chain(scan)
            add("chain", chain_rep.passed, chain_rep.worst.margin)
            _, agree = group_chain_report(scan, chain_rep)
            add("kostant_agreement", agree, 0.0)

            for kind in TARGET_KINDS:
                prob = OrbitProblem.create(
                    random_real_symmetric_traceless(n, base + 3),
                    random_real_symmetric_traceless(n, base + 4),
                    kind,
                )
                sol = solve(prob, tol=ORBIT_TOL, seed=base, realization="slr")
                u = sol.u.mat.real
                in_so_n = (
                    float(np.abs(u.T @ u - np.eye(n)).max()) <= 1e-10
                    and np.linalg.det(u) > 0.0
                )
                ok = sol.residual <= ORBIT_TOL and in_so_n
                add("orbit_" + kind, ok and verify_membership(sol, prob), sol.residual)
    return res
