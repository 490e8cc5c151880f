"""Seeded random matrix generators.

Every sampler is a pure function of its arguments: the same (n, seed, ...)
always yields the same matrix, which is what makes batch verification runs
reproducible byte for byte.  All but ``random_invertible`` start from one
seeded draw, ``_draw_factor``, whose polar unitary Q = W V* (an internal
array; each unitary returned is a validated ``UnitaryMatrix``) is their
eigenbasis, and each Q diag(v) Q* they return is made with its pair (Q, v).
"""

from __future__ import annotations

import numpy as np

from .errors import ParamOutOfRange
from .linalg import (
    SPD_TOL,
    ComplexMatrix,
    HermitianMatrix,
    SpdMatrix,
    UnitaryMatrix,
    _polar_unitary,
    require_exp_range,
    svd,
)

_SPD_DRAW = f"a condition number not below {1.0 / SPD_TOL:.0e}: eigenvalues in"


def _gaussian_complex(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _check_scale(name: str, value: float) -> None:
    """ParamOutOfRange unless value > 0 and the width 2 * value of the
    uniform draw on [-value, value] is finite."""
    if not (value > 0.0 and np.isfinite(2.0 * float(value))):
        raise ParamOutOfRange(f"{name} must be positive, with 2 * {name} finite, got {value}")


def _draw_factor(n: int, seed: int, real: bool = False) -> tuple:
    """The seeded generator and the polar unitary of its first Gaussian
    draw (an array), a complex one or, with ``real``, a real one cast to complex."""
    if n < 1:
        raise ParamOutOfRange(f"dimension must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)).astype(complex) if real else _gaussian_complex(rng, n)
    return rng, _polar_unitary(g)


def random_unitary(n: int, seed: int) -> UnitaryMatrix:
    """Haar-like unitary: polar factor of a seeded complex Gaussian matrix."""
    return UnitaryMatrix(_draw_factor(n, seed)[1])


def random_orthogonal(n: int, seed: int) -> UnitaryMatrix:
    """Random element of SO(n): polar factor of a real Gaussian, det +1."""
    mat = _draw_factor(n, seed, real=True)[1].real.copy()
    if np.linalg.det(mat) < 0.0:
        mat[:, 0] = -mat[:, 0]
    return UnitaryMatrix(mat.astype(complex))


def random_spd(n: int, seed: int, spread: float = 2.0) -> SpdMatrix:
    """Q diag(e^{u_i}) Q* with u_i uniform in [-spread, spread].

    Q is the polar unitary of a seeded complex Gaussian, so the condition
    number is e^{max u - min u} by construction.  A draw that leaves the
    SpdMatrix range (``require_spd_range``), or whose exponents ``mat_exp``
    would reject (``require_exp_range``), raises DomainError, in that order;
    the default spread never does.
    """
    _check_scale("spread", spread)
    rng, q = _draw_factor(n, seed)
    expo = rng.uniform(-spread, spread, size=n)

    def what(issue):  # a message, built only if its check fails
        return lambda k: f"random_spd(n={n}, seed={seed}, spread={spread}) drew {issue}"
    # inf fails the SPD range before the assembly, an overflow the exponent check.
    with np.errstate(over="ignore", invalid="ignore"):
        spd = SpdMatrix._from_eig(q, np.exp(expo), what(_SPD_DRAW))
    require_exp_range(np.abs(expo).max(), what("exponents past the float range: max |u|"))
    return spd


def random_hermitian(n: int, seed: int, scale: float = 1.0) -> HermitianMatrix:
    """Q diag(u) Q* with u uniform in [-scale, scale]; eigenvalues bounded
    by scale, which keeps e^{rX} well conditioned across a chain grid."""
    _check_scale("scale", scale)
    rng, q = _draw_factor(n, seed)
    return HermitianMatrix._from_eig(q, rng.uniform(-scale, scale, size=n))


def random_real_symmetric_traceless(n: int, seed: int, scale: float = 1.0) -> HermitianMatrix:
    """Real symmetric traceless sample for the SL(n,R)/SO(n) realization.

    Built as Q diag(u - mean u) Q^T with u uniform in [-scale, scale], so the
    spectral radius stays below 2 scale; targets derived through e^{2X} then
    remain well conditioned.  ParamOutOfRange before the draw unless
    n * scale, the bound of the sum of u, is finite.
    """
    _check_scale("scale", scale)
    if not np.isfinite(float(n) * float(scale)):
        raise ParamOutOfRange(f"n * scale must be finite, got n = {n}, scale = {scale}")
    rng, q = _draw_factor(n, seed, real=True)
    vals = rng.uniform(-scale, scale, size=n)
    vals -= vals.mean()
    return HermitianMatrix._from_eig(q.real, vals)


def random_invertible(n: int, seed: int) -> ComplexMatrix:
    """Seeded complex Gaussian, redrawn if numerically near singular."""
    if n < 1:
        raise ParamOutOfRange(f"dimension must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    for _ in range(16):
        g = _gaussian_complex(rng, n)
        svals = svd(g, vectors=False)
        if svals[-1] > 1e-8 * svals[0]:
            return ComplexMatrix(g)
    raise ParamOutOfRange("could not draw a well-conditioned matrix")
