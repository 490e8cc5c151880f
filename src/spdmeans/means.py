"""Metric and spectral geometric means of positive definite matrices.

The two parameterized means

    sharp_t  :  A #_t B = A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}
    natural_t:  A @_t B = (A^{-1} # B)^t A (A^{-1} # B)^t

plus the unitary intertwiner relating the spectral mean to
(A^{1/2} B A^{1/2})^{1/2}, the Loewner order predicate, and a residual
suite for the algebraic identity laws the means satisfy.

Everything is computed from the defining formulas through
eigendecompositions; the algebraic shortcuts are exactly the properties the
test suites check, so they are never used as the computation path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, ParamOutOfRange
from .linalg import (
    ComplexMatrix,
    HermitianMatrix,
    SpdMatrix,
    UnitaryMatrix,
    eig_hermitian,
    mat_pow,
    polar,
)

IDENTITY_TOL = 1e-10
ORDER_TOL = 1e-12


def _check_pair(a: SpdMatrix, b: SpdMatrix) -> None:
    if not isinstance(a, SpdMatrix) or not isinstance(b, SpdMatrix):
        raise ParamOutOfRange("means are defined for positive definite matrices")
    if a.n != b.n:
        raise DimensionMismatch(f"dimension mismatch: {a.n} vs {b.n}")


def _check_unit(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise ParamOutOfRange(f"{name} must lie in [0, 1], got {value}")


def rel_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Max-norm difference relative to the larger operand's max-norm."""
    scale = max(float(np.abs(lhs).max()), float(np.abs(rhs).max()), 1e-300)
    return float(np.abs(lhs - rhs).max()) / scale


def _positive_product(arr: np.ndarray) -> SpdMatrix:
    """Wrap a product of positive definite factors whose power or root is
    taken next, after checking that its smallest eigenvalue is positive.

    The products A^{-1/2} B A^{-1/2} and A^{1/2} B A^{1/2} can have
    condition numbers up to cond(A) * cond(B).  Past 1/eps their smallest
    computed eigenvalue can be zero or negative, and its power is NaN.  The
    eigendecomposition computed here is the one the power then uses.
    """
    m = SpdMatrix._trusted(arr)
    values = eig_hermitian(m).values
    if not values[-1] > 0.0:
        raise DomainError(
            "the pair is too ill-conditioned for its means: a product of the "
            f"pair has computed eigenvalues in [{values[-1]:.3e}, {values[0]:.3e}]"
        )
    return m


class _MeanPair:
    """Per-pair cache so repeated mean evaluations share decompositions."""

    def __init__(self, a: SpdMatrix, b: SpdMatrix):
        _check_pair(a, b)
        self.a = a
        self.b = b
        self._root_a = None       # (A^{1/2}, A^{-1/2}) arrays
        self._mid = None          # A^{-1/2} B A^{-1/2}
        self._cross = None        # A^{-1} # B
        self._sharp = {}
        self._natural = {}

    def _roots(self):
        if self._root_a is None:
            pair = eig_hermitian(self.a)
            q = pair.vectors.mat
            rt = np.sqrt(pair.values)
            self._root_a = ((q * rt) @ q.conj().T, (q / rt) @ q.conj().T)
        return self._root_a

    def sharp(self, t: float) -> SpdMatrix:
        if t not in self._sharp:
            ra, ria = self._roots()
            if self._mid is None:
                self._mid = _positive_product(ria @ self.b.mat @ ria)
            core = mat_pow(self._mid, t).mat
            self._sharp[t] = SpdMatrix._trusted(ra @ core @ ra)
        return self._sharp[t]

    def cross(self) -> SpdMatrix:
        """A^{-1} # B, the generator of the spectral mean."""
        if self._cross is None:
            ra, ria = self._roots()
            pair = eig_hermitian(_positive_product(ra @ self.b.mat @ ra))
            q = pair.vectors.mat
            root = (q * np.sqrt(pair.values)) @ q.conj().T
            self._cross = _positive_product(ria @ root @ ria)
        return self._cross

    def natural(self, t: float) -> SpdMatrix:
        if t not in self._natural:
            ct = mat_pow(self.cross(), t).mat
            self._natural[t] = SpdMatrix._trusted(ct @ self.a.mat @ ct)
        return self._natural[t]


def geometric_mean(a: SpdMatrix, b: SpdMatrix, t: float = 0.5) -> SpdMatrix:
    """t-metric geometric mean A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}.

    The point at parameter t on the Riemannian geodesic from A to B in the
    positive definite cone.
    """
    _check_unit("t", t)
    return _MeanPair(a, b).sharp(t)


def spectral_mean(a: SpdMatrix, b: SpdMatrix, t: float = 0.5) -> SpdMatrix:
    """t-spectral geometric mean (A^{-1} # B)^t A (A^{-1} # B)^t.

    At t = 1/2 its square is similar to AB, so its eigenvalues are the
    positive square roots of the eigenvalues of AB.
    """
    _check_unit("t", t)
    return _MeanPair(a, b).natural(t)


def spectral_mean_unitary(a: SpdMatrix, b: SpdMatrix) -> UnitaryMatrix:
    """Unitary U with A @ B = U (A^{1/2} B A^{1/2})^{1/2} U*.

    U is the polar unitary of (A^{-1} # B)^{1/2} A^{1/2}.
    """
    pair = _MeanPair(a, b)
    ra, _ = pair._roots()
    g = mat_pow(pair.cross(), 0.5).mat @ ra
    u, _ = polar(ComplexMatrix(g), side="right")
    return u


def loewner_leq(a: HermitianMatrix, b: HermitianMatrix) -> bool:
    """Loewner order: True iff B - A is positive semidefinite (within
    ORDER_TOL relative slack)."""
    if a.n != b.n:
        raise DimensionMismatch(f"dimension mismatch: {a.n} vs {b.n}")
    diff = b.mat - a.mat
    scale = float(np.abs(diff).max())
    if scale == 0.0:
        return True
    vals = eig_hermitian(HermitianMatrix._wrap(diff)).values
    return bool(vals[-1] >= -ORDER_TOL * scale)


def spd_det(m: SpdMatrix) -> float:
    """Determinant via the cached eigenvalues."""
    return float(np.prod(eig_hermitian(m).values))


@dataclass
class MeanIdentityReport:
    """Named residuals from one identity-suite evaluation."""

    params: tuple
    residuals: dict
    tol: float = IDENTITY_TOL

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


IDENTITY_NAMES = (
    "natural_inverse_half",
    "natural_inverse_t",
    "natural_swap_t",
    "sharp_swap_t",
    "link_half",
    "link_t_left",
    "link_t_right",
    "conjugation_t_p",
    "conjugation_t_q",
    "natural_interpolation",
    "sharp_chain",
    "natural_chain",
    "riccati_midpoint",
    "sharp_determinant",
    "natural_determinant",
)


class _IdentityContext:
    """The identity laws of one pair, grouped by the parameters they read.

    - none: natural_inverse_half, link_half, riccati_midpoint;
    - t: natural_inverse_t, natural_swap_t, sharp_swap_t, link_t_left,
      link_t_right, conjugation_t_p, conjugation_t_q, sharp_determinant,
      natural_determinant;
    - (r, s): sharp_chain, natural_chain;
    - (t, r, s): natural_interpolation.

    ``evaluate`` computes each group once per distinct key and keeps it, so
    a grid of T x R x S triples evaluates the groups 1 + T + R*S + T*R*S
    times rather than every law T*R*S times.  The means behind the laws are
    shared through the ``_MeanPair`` caches.
    """

    def __init__(self, a: SpdMatrix, b: SpdMatrix):
        _check_pair(a, b)
        self.a = a
        self.b = b
        self.pair = _MeanPair(a, b)
        self.swapped = _MeanPair(b, a)
        self.a_inv = _spd_inverse(a)
        self.inverse = _MeanPair(self.a_inv, _spd_inverse(b))
        self._det_a = spd_det(a)
        self._det_b = spd_det(b)
        self._fixed = None
        self._by_t = {}
        self._by_rs = {}
        self._chain_pairs = {}    # r -> pairs (A #_r B, B) and (A @_r B, B)

    def _link(self, t: float) -> SpdMatrix:
        """C_t = A^{-1} # (A @_t B), computed from its defining mean."""
        return _MeanPair(self.a_inv, self.pair.natural(t)).sharp(0.5)

    def _fixed_laws(self) -> dict:
        pair, b = self.pair, self.b
        nat_inv_half = _spd_inverse(pair.natural(0.5))
        # Midpoint equation: g = A # B uniquely solves g A^{-1} g = B on SPD.
        g = pair.sharp(0.5)
        return {
            "natural_inverse_half": rel_residual(
                nat_inv_half.mat, self.inverse.natural(0.5).mat
            ),
            "link_half": rel_residual(
                self._link(0.5).mat, _MeanPair(nat_inv_half, b).sharp(0.5).mat
            ),
            "riccati_midpoint": rel_residual(
                g.mat @ self.a_inv.mat @ g.mat, b.mat
            ),
        }

    def _t_laws(self, t: float) -> dict:
        pair, swapped = self.pair, self.swapped
        a, b = self.a, self.b
        nat_t = pair.natural(t)
        sharp_t = pair.sharp(t)
        swap_nat_t = swapped.natural(t)
        # Links between the means: A^{-1} # (A @_t B) = (A^{-1} # B)^t.
        cross_t = mat_pow(pair.cross(), t)
        # Conjugation form: with C_t = A^{-1} # (A @_t B),
        # A @_t B = C_t A C_t and B @_t A = C_t^{-1} B C_t^{-1}.
        c_t = self._link(t)
        ct_inv = _spd_inverse(c_t)
        # Determinant scaling law shared by both means.
        det_target = self._det_a ** (1.0 - t) * self._det_b ** t
        det_scale = max(abs(det_target), 1e-300)
        return {
            "natural_inverse_t": rel_residual(
                _spd_inverse(nat_t).mat, self.inverse.natural(t).mat
            ),
            "natural_swap_t": rel_residual(
                nat_t.mat, swapped.natural(1.0 - t).mat
            ),
            "sharp_swap_t": rel_residual(
                sharp_t.mat, swapped.sharp(1.0 - t).mat
            ),
            "link_t_left": rel_residual(c_t.mat, cross_t.mat),
            "link_t_right": rel_residual(
                _MeanPair(_spd_inverse(swap_nat_t), b).sharp(0.5).mat,
                cross_t.mat,
            ),
            "conjugation_t_p": rel_residual(
                c_t.mat @ a.mat @ c_t.mat, nat_t.mat
            ),
            "conjugation_t_q": rel_residual(
                ct_inv.mat @ b.mat @ ct_inv.mat, swap_nat_t.mat
            ),
            "sharp_determinant": abs(spd_det(sharp_t) - det_target) / det_scale,
            "natural_determinant": abs(spd_det(nat_t) - det_target) / det_scale,
        }

    def _rs_laws(self, r: float, s: float) -> tuple[dict, _MeanPair]:
        """Geodesic reparameterization for both means, plus the pair
        (A @_r B, A @_s B) the interpolation law takes means of."""
        pair = self.pair
        if r not in self._chain_pairs:
            self._chain_pairs[r] = (
                _MeanPair(pair.sharp(r), self.b),
                _MeanPair(pair.natural(r), self.b),
            )
        sharp_chain, natural_chain = self._chain_pairs[r]
        u = s / (1.0 - r)
        laws = {
            "sharp_chain": rel_residual(
                pair.sharp(r + s).mat, sharp_chain.sharp(u).mat
            ),
            "natural_chain": rel_residual(
                pair.natural(r + s).mat, natural_chain.natural(u).mat
            ),
        }
        return laws, _MeanPair(pair.natural(r), pair.natural(s))

    def evaluate(self, t: float, r: float, s: float) -> MeanIdentityReport:
        if self._fixed is None:
            self._fixed = self._fixed_laws()
        if t not in self._by_t:
            self._by_t[t] = self._t_laws(t)
        if (r, s) not in self._by_rs:
            self._by_rs[(r, s)] = self._rs_laws(r, s)
        chain_laws, interp_pair = self._by_rs[(r, s)]
        # Interpolation: (A @_r B) @_t (A @_s B) = A @_{(1-t)r + ts} B.
        interpolation = rel_residual(
            interp_pair.natural(t).mat,
            self.pair.natural((1.0 - t) * r + t * s).mat,
        )
        laws = {
            **self._fixed,
            **self._by_t[t],
            **chain_laws,
            "natural_interpolation": interpolation,
        }
        return MeanIdentityReport(
            params=(t, r, s), residuals={name: laws[name] for name in IDENTITY_NAMES}
        )


def _check_suite_params(t: float, r: float, s: float) -> None:
    for name, val in (("t", t), ("r", r), ("s", s)):
        _check_unit(name, val)
    if r + s > 1.0 + 1e-15:
        raise ParamOutOfRange(f"need r + s <= 1, got r + s = {r + s}")
    if r >= 1.0:
        raise ParamOutOfRange("need r < 1 for the reparameterization laws")


def mean_identity_suite(
    a: SpdMatrix,
    b: SpdMatrix,
    t: float = 0.5,
    r: float = 0.25,
    s: float = 0.5,
) -> MeanIdentityReport:
    """Residuals of the algebraic laws both means satisfy at (t, r, s).

    Requires r + s <= 1 and r < 1 so the geodesic reparameterization laws
    are well posed.
    """
    _check_suite_params(t, r, s)
    return _IdentityContext(a, b).evaluate(t, r, s)


def mean_identity_grid(
    a: SpdMatrix,
    b: SpdMatrix,
    t_values,
    r_values,
    s_values,
) -> list[MeanIdentityReport]:
    """Identity suite over a full (t, r, s) grid, one report per triple.

    One ``_IdentityContext`` serves the whole grid, so each law is
    evaluated once per distinct value of the parameters it depends on.

    Triples with r + s > 1 or r = 1 are skipped (the reparameterization
    laws are not defined there).
    """
    ctx = _IdentityContext(a, b)
    reports = []
    for t in t_values:
        for r in r_values:
            for s in s_values:
                if r + s > 1.0 + 1e-15 or r >= 1.0:
                    continue
                _check_suite_params(t, r, s)
                reports.append(ctx.evaluate(t, r, s))
    return reports


def _spd_inverse(m: SpdMatrix) -> SpdMatrix:
    pair = eig_hermitian(m)
    return SpdMatrix._from_eig(pair.vectors.mat, 1.0 / pair.values)
