"""Seeded random matrix generators.

Every sampler is a pure function of its arguments: the same (n, seed, ...)
always yields the same matrix, which is what makes batch verification runs
reproducible byte for byte.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ParamOutOfRange
from .linalg import (
    SPD_TOL,
    ComplexMatrix,
    HermitianMatrix,
    SpdMatrix,
    UnitaryMatrix,
    _assemble,
    polar,
)


def _gaussian_complex(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_unitary(n: int, seed: int) -> UnitaryMatrix:
    """Haar-like unitary: polar factor of a seeded complex Gaussian matrix."""
    if n < 1:
        raise ParamOutOfRange(f"dimension must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    u, _ = polar(ComplexMatrix(_gaussian_complex(rng, n)), side="right")
    return u


def random_orthogonal(n: int, seed: int) -> UnitaryMatrix:
    """Random element of SO(n): polar factor of a real Gaussian, det +1."""
    if n < 1:
        raise ParamOutOfRange(f"dimension must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    u, _ = polar(ComplexMatrix(rng.standard_normal((n, n)).astype(complex)), "right")
    mat = u.mat.real.copy()
    if np.linalg.det(mat) < 0.0:
        mat[:, 0] = -mat[:, 0]
    return UnitaryMatrix(mat.astype(complex))


def random_spd(n: int, seed: int, spread: float = 2.0) -> SpdMatrix:
    """Q diag(e^{u_i}) Q* with u_i uniform in [-spread, spread].

    Q is the polar unitary of a seeded complex Gaussian, so the condition
    number is e^{max u - min u} by construction.  A draw whose condition
    number the SpdMatrix guard would reject (not below 1 / SPD_TOL) raises
    DomainError; the default spread never does.
    """
    if n < 1:
        raise ParamOutOfRange(f"dimension must be >= 1, got {n}")
    if not spread > 0.0:
        raise ParamOutOfRange(f"spread must be positive, got {spread}")
    rng = np.random.default_rng(seed)
    u, _ = polar(ComplexMatrix(_gaussian_complex(rng, n)), side="right")
    logvals = rng.uniform(-spread, spread, size=n)
    span = np.ptp(logvals)
    if not span < -np.log(SPD_TOL):
        raise DomainError(
            f"random_spd(n={n}, seed={seed}, spread={spread}) drew condition "
            f"number {np.exp(span):.3e}, not below {1.0 / SPD_TOL:.0e}"
        )
    return SpdMatrix._from_eig(u.mat, np.exp(logvals))


def random_hermitian(n: int, seed: int, scale: float = 1.0) -> HermitianMatrix:
    """Q diag(u) Q* with u uniform in [-scale, scale]; eigenvalues bounded
    by scale, which keeps e^{rX} well conditioned across a chain grid."""
    if n < 1:
        raise ParamOutOfRange(f"dimension must be >= 1, got {n}")
    if not scale > 0.0:
        raise ParamOutOfRange(f"scale must be positive, got {scale}")
    rng = np.random.default_rng(seed)
    u, _ = polar(ComplexMatrix(_gaussian_complex(rng, n)), side="right")
    return HermitianMatrix._wrap(_assemble(u.mat, rng.uniform(-scale, scale, size=n)))


def random_real_symmetric_traceless(n: int, seed: int, scale: float = 1.0) -> HermitianMatrix:
    """Real symmetric traceless sample for the SL(n,R)/SO(n) realization.

    Built as Q diag(u - mean u) Q^T with u uniform in [-scale, scale], so the
    spectral radius stays below 2 scale; targets derived through e^{2X} then
    remain well conditioned.
    """
    if n < 1:
        raise ParamOutOfRange(f"dimension must be >= 1, got {n}")
    if not scale > 0.0:
        raise ParamOutOfRange(f"scale must be positive, got {scale}")
    rng = np.random.default_rng(seed)
    q, _ = polar(ComplexMatrix(rng.standard_normal((n, n)).astype(complex)), "right")
    vals = rng.uniform(-scale, scale, size=n)
    vals -= vals.mean()
    return HermitianMatrix._wrap(_assemble(q.mat.real, vals).astype(complex))


def random_invertible(n: int, seed: int) -> ComplexMatrix:
    """Seeded complex Gaussian, redrawn if numerically near singular."""
    if n < 1:
        raise ParamOutOfRange(f"dimension must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    for _ in range(16):
        g = _gaussian_complex(rng, n)
        svals = np.linalg.svd(g, compute_uv=False)
        if svals[-1] > 1e-8 * svals[0]:
            return ComplexMatrix(g)
    raise ParamOutOfRange("could not draw a well-conditioned matrix")
