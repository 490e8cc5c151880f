"""The symmetric spaces G/K the checks run on: ``REALIZATIONS`` maps 'glc',
GL(n,C)/U(n), and 'slr', SL(n,R)/SO(n), to the object that owns every choice
that depends on the space: the four members ``sample``, ``project``,
``random_factor`` and ``contains`` and the ``dtype`` of the orbit solver's
arithmetic, all that a new space supplies (the solver needs no basis of the
Lie algebra of K, and its Cayley retraction stays in K by itself).  glc
solves in complex128, and slr in float64 on the real parts of its inputs.

``run_suites_on_realization`` re-runs the means, log-majorization, chain,
pre-order and orbit checks on real symmetric traceless inputs, each by the
pass rule of its complex suite, and returns the rows of the ``realization``
suite: the suites' runner over the cases (trial, n), n outermost, and the
row function ``_realization_rows``.
"""

from __future__ import annotations

import numpy as np

from . import sampling
from .gtchain import evaluate_chain, scan_chain
from .kostant import group_chain_report
from .linalg import UNITARY_TOL, HermitianMatrix, mat_exp, unitarity_error
from .majorization import log_majorization_margins
from .means import IDENTITY_TOL, _IdentityContext, spd_det

# |det - 1| bound of the exponentials of traceless inputs.
UNIT_DET_TOL = 1e-8


class Realization:
    """GL(n,C)/U(n): Hermitian inputs, K = U(n), factors as complex arrays.
    A new space overrides the four members sample (p), project (onto p),
    random_factor (K) and contains (K), and the orbit solver's dtype."""

    dtype = np.complex128

    def sample(self, n: int, seed: int, scale: float = 1.0) -> HermitianMatrix:
        """Seeded random input of the space, its eigenvalues of order scale."""
        return sampling.random_hermitian(n, seed, scale)

    def project(self, x: HermitianMatrix) -> HermitianMatrix:
        """Nearest input of the space to a Hermitian matrix."""
        return x

    def random_factor(self, n: int, seed: int) -> np.ndarray:
        """Seeded random element of K, an array of the space's dtype."""
        return sampling.random_unitary(n, seed).mat

    def contains(self, u: np.ndarray) -> bool:
        """Whether u is in K (``unitarity_error``)."""
        return unitarity_error(u) is None


class _RealRealization(Realization):
    """SL(n,R)/SO(n): real symmetric traceless inputs, K = SO(n)."""

    dtype = np.float64

    def sample(self, n, seed, scale=1.0):
        return sampling.random_real_symmetric_traceless(n, seed, scale)

    def project(self, x):
        """Nearest real symmetric traceless matrix: real part, symmetrized,
        trace removed."""
        arr = np.asarray(x.mat).real
        sym = (arr + arr.T) / 2.0
        sym = sym - np.eye(sym.shape[0]) * (np.trace(sym) / sym.shape[0])
        return HermitianMatrix._wrap(sym.astype(complex))

    def random_factor(self, n, seed):
        return sampling.random_orthogonal(n, seed).mat.real.copy()

    def contains(self, u):
        real = np.abs(u.imag).max() <= UNITARY_TOL
        return bool(real and super().contains(u) and np.linalg.det(u.real) > 0.0)


REALIZATIONS = {"glc": Realization(), "slr": _RealRealization()}


def run_suites_on_realization(seed: int = 0, n_values=(2, 3, 4), trials: int = 3) -> "SuiteResult":
    """Re-run the mean, chain, orbit and pre-order checks on real inputs.

    Each case (trial, n), n outermost, gives the eight rows of
    ``_realization_rows``, the ``realization`` suite's row function.  Orbit
    factors are constrained to SO(n).  A row that a complex suite also
    checks passes by that suite's rule: the identity laws by IDENTITY_TOL,
    log-majorization by LOGMAJ_MARGIN_TOL, the chain by its roundoff band
    and the orbit rows by ``suites.orbit_verdict``.
    """
    # orbit and suites import this module.  Importing suites here also keeps
    # it out of a plain ``import spdmeans``.
    from .suites import _run

    cases = [(trial, n) for n in n_values for trial in range(trials)]
    return _run("realization", seed, cases, _realization_rows)


def _realization_rows(seed, trial, n):
    from .orbit import TARGET_KINDS, OrbitProblem
    from .suites import LOGMAJ_MARGIN_TOL, orbit_verdict

    slr = REALIZATIONS["slr"]
    base = seed + 10007 * trial + 101 * n
    a = mat_exp(slr.sample(n, base))
    b = mat_exp(slr.sample(n, base + 104729))
    identities = _IdentityContext(a, b)
    worst = max(identities.evaluate(0.3, 0.25, 0.5).values())
    yield None, "means_identities", worst <= IDENTITY_TOL, worst
    det_err = max(abs(spd_det(a) - 1.0), abs(spd_det(b) - 1.0))
    yield None, "unit_determinant", det_err < UNIT_DET_TOL, det_err
    lam_sharp, lam_nat = identities.pair.spectra([0.5])
    margin = float(log_majorization_margins(lam_sharp, lam_nat)[0][0])
    yield None, "log_majorization", margin >= -LOGMAJ_MARGIN_TOL, margin

    x = slr.sample(n, base + 1, 0.5)
    y = slr.sample(n, base + 2, 0.5)
    scan = scan_chain(x, y, tuple(2.0 ** k for k in range(-3, 2)))
    chain_rep = evaluate_chain(scan)
    yield None, "chain", chain_rep.passed, float(chain_rep.margin[chain_rep.worst])
    _, agree = group_chain_report(scan, chain_rep)
    yield None, "kostant_agreement", agree, 0.0

    x, y = slr.sample(n, base + 3), slr.sample(n, base + 4)
    for kind in TARGET_KINDS:
        prob = OrbitProblem.create(x, y, kind)
        yield None, "orbit_" + kind, *orbit_verdict("slr", prob, base)
