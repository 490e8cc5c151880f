"""The symmetric spaces G/K the checks run on: ``REALIZATIONS`` maps 'glc',
GL(n,C)/U(n), and 'slr', SL(n,R)/SO(n), to the object that owns every choice
that depends on the space: the four members ``sample``, ``project``,
``random_factor`` and ``contains`` and the ``dtype`` of the orbit solver's
arithmetic, all that a new space supplies (the solver needs no basis of the
Lie algebra of K, and its Cayley retraction stays in K by itself).  glc
solves in complex128, and slr in float64 on the real parts of its inputs.

``run_suites_on_realization`` returns the rows of the ``realization``
suite, whose row function ``suites._realization_rows`` re-runs the means,
log-majorization, chain, pre-order and orbit checks on real symmetric
traceless inputs.
"""

from __future__ import annotations

import numpy as np

from . import sampling
from .linalg import UNITARY_TOL, HermitianMatrix, unitarity_error


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
    ``suites._realization_rows``.  Orbit factors are constrained to SO(n).
    A row that a complex suite also checks passes by that suite's rule.
    """
    # suites imports this module.  Importing it here also keeps it out of a
    # plain ``import spdmeans``.
    from .suites import _realization_rows, _run

    cases = [(trial, n) for n in n_values for trial in range(trials)]
    return _run("realization", seed, cases, _realization_rows)
