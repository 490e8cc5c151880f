"""Kostant pre-order on invertible matrices.

For GL(n, C) the pre-order reduces to log-majorization of eigenvalue
moduli: the moduli of lambda(g) equal the eigenvalues of the hyperbolic
factor of g (the elliptic and unipotent factors contribute modulus one),
and the Weyl group is the symmetric group, so hull containment of the
log-spectra is exactly majorization with total-sum equality.
"""

from __future__ import annotations

from dataclasses import replace

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

    Re-evaluates the scan's chain predicates on a copy of the scan whose
    spectra are the eigenvalue moduli of its 2R + 1 elements as group
    elements; the returned flag is whether its verdicts equal those of the
    log-majorization comparator's ``plain_rep = evaluate_chain(scan)``,
    check for check.  On the scan's positive definite elements
    ``hyperbolic_spectrum`` returns their held eigenvalues bit for bit,
    so both reports are the same numbers and the flag cannot be False: it
    checks nothing until the moduli come from a group-native computation.
    """
    moduli = [hyperbolic_spectrum(scan.element(k)) for k in range(len(scan.mats))]
    group_rep = evaluate_chain(replace(scan, spectra=np.array(moduli)))
    return group_rep, np.array_equal(group_rep.holds, plain_rep.holds)
