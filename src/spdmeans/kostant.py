"""Kostant pre-order on invertible matrices.

For GL(n, C) the pre-order reduces to log-majorization of eigenvalue
moduli: the moduli of lambda(g) equal the eigenvalues of the hyperbolic
factor of g (the elliptic and unipotent factors contribute modulus one),
and the Weyl group is the symmetric group, so hull containment of the
log-spectra is exactly majorization with total-sum equality.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularInput
from .gtchain import ChainReport, ChainScan, evaluate_chain
from .linalg import ComplexMatrix, require_same_dimension, require_spd_range, spectrum
from .majorization import MajorizationReport, log_majorization_report


def hyperbolic_spectrum(g: ComplexMatrix) -> np.ndarray:
    """Eigenvalue moduli of g, descending (the order of ``spectrum``).

    These are the eigenvalues of the hyperbolic factor in the complete
    multiplicative Jordan decomposition; the decomposition itself is never
    materialized.
    """
    moduli = np.abs(spectrum(g))
    what = "hyperbolic spectrum requires an invertible input: eigenvalue moduli in"
    require_spd_range(moduli, what, SingularInput)
    return moduli


def kostant_report(f: ComplexMatrix, g: ComplexMatrix) -> MajorizationReport:
    """Margins of f <=_G g as log-majorization of hyperbolic spectra."""
    require_same_dimension(f, g)
    return log_majorization_report(hyperbolic_spectrum(f), hyperbolic_spectrum(g))


def kostant_leq(f: ComplexMatrix, g: ComplexMatrix) -> bool:
    """Kostant pre-order f <=_G g on invertible matrices."""
    return kostant_report(f, g).holds


def group_chain_report(
    scan: ChainScan, plain_rep: ChainReport
) -> tuple[ChainReport, bool]:
    """Golden-Thompson chain scored with the group pre-order comparator.

    Re-evaluates the scan's chain predicates using eigenvalue moduli of the
    chain elements as group elements.  On positive definite elements the
    moduli equal the eigenvalues, so the verdicts must agree with the
    log-majorization comparator's ``plain_rep = evaluate_chain(scan)``
    verdict for verdict; the returned flag records that agreement.
    """
    phi_mod = [hyperbolic_spectrum(m) for m in scan.phi_mats]
    psi_mod = [hyperbolic_spectrum(m) for m in scan.psi_mats]
    mid_mod = hyperbolic_spectrum(scan.exp_sum)
    group_rep = evaluate_chain(scan, spectra=(phi_mod, psi_mod, mid_mod))
    agree = len(group_rep.checks) == len(plain_rep.checks) and all(
        a.holds == b.holds for a, b in zip(group_rep.checks, plain_rep.checks)
    )
    return group_rep, agree
