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

The computation works on arrays.  ``_MeanPair`` holds a stack of pairs of
shape ``(..., n, n)`` and takes the means at every parameter of a set in one
call, as ``Q diag(lambda^tau) Q*`` over a parameter axis appended to the
stack.  The base and the exponent of each power are broadcast out and made
contiguous before numpy's ``power`` runs, so every layout goes through the
same loop and a pair in a stack gets the same bits as the same two arrays
alone.  An ``SpdMatrix`` A starts from its cached eigendecomposition when it
has one (``random_spd`` caches the one it was built from), which can differ
from a fresh ``eigh`` of A in the last bits.  ``geometric_mean``,
``spectral_mean`` and ``_MeanPair.sharp`` / ``natural`` / ``cross`` are
views of one pair at one parameter, and ``_IdentityContext`` evaluates
the identity laws over a whole parameter grid as a handful of stacked
expressions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ParamOutOfRange
from .linalg import (
    ComplexMatrix,
    HermitianMatrix,
    SpdMatrix,
    UnitaryMatrix,
    _assemble,
    _ct,
    _herm,
    _pow,
    eig_hermitian,
    eigh_stack,
    polar,
    require_positive,
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


def _max_abs(arr: np.ndarray) -> np.ndarray:
    return np.abs(arr).max(axis=(-2, -1))


def rel_residual(lhs: np.ndarray, rhs: np.ndarray):
    """Max-norm difference relative to the larger operand's max-norm.

    Taken over the trailing two axes: a float for two matrices, an array
    over the broadcast stack for stacks of matrices.
    """
    scale = np.maximum(np.maximum(_max_abs(lhs), _max_abs(rhs)), 1e-300)
    res = _max_abs(lhs - rhs) / scale
    return float(res) if res.ndim == 0 else res


def _powers(vals: np.ndarray, q: np.ndarray, taus) -> np.ndarray:
    """Q diag(vals^tau) Q* for every tau of ``taus``.

    ``vals`` / ``q`` are the eigenvalues ``(..., n)`` and eigenvectors
    ``(..., n, n)`` of a stack.  The last axis of ``taus`` is the parameter
    axis; its leading axes broadcast against the stack.  The result has
    shape stack + (K, n, n).
    """
    taus = np.asarray(taus, dtype=float)
    return _assemble(q[..., None, :, :], _pow(vals[..., None, :], taus[..., None]))


def _inverse(arr: np.ndarray) -> np.ndarray:
    """Inverse of every positive definite matrix of a stack, through its
    eigendecomposition."""
    vals, q = eigh_stack(arr)
    return _assemble(q, 1.0 / vals)


def _positive_product(arr: np.ndarray) -> tuple:
    """Symmetrize a stack of products of positive definite factors whose
    power or root is taken next, and decompose it, after checking that the
    smallest eigenvalue of every member is positive.

    The products A^{-1/2} B A^{-1/2} and A^{1/2} B A^{1/2} can have
    condition numbers up to cond(A) * cond(B).  Past 1/eps their smallest
    computed eigenvalue can be zero or negative, and its power is NaN.  The
    eigendecomposition computed here is the one the power then uses.
    Returns (symmetrized stack, eigenvalues, eigenvectors).
    """
    sym = _herm(arr)
    vals, q = eigh_stack(sym)
    require_positive(
        vals,
        "the pair is too ill-conditioned for its means "
        "(a product of the pair is numerically indefinite)",
    )
    return sym, vals, q


class _MeanPair:
    """Both means of a stack of pairs, sharing their decompositions.

    ``a`` and ``b`` are two ``SpdMatrix`` objects, or two arrays of shape
    ``(..., n, n)`` that broadcast against each other (their broadcast
    leading shape is the pair's stack; the arrays are trusted to be
    positive definite, as ``SpdMatrix._wrap`` trusts its input).  A is
    decomposed afresh for arrays unless the caller sets ``_eig_a``; an
    ``SpdMatrix`` A reuses its cached decomposition, so a pair at the edge
    of the accepted range can raise for one kind of input and not the other.
    ``sharps(taus)`` and ``naturals(taus)`` take the mean of every pair at
    every parameter of ``taus``, whose last axis is the parameter axis and
    whose leading axes broadcast against the stack; they return stack +
    (K, n, n).  Every product whose power or root is taken is checked on
    every member of the stack first, and ``DomainError`` is raised if any
    member is numerically indefinite.  ``sharp(t)``, ``natural(t)`` and
    ``cross()`` are the one-pair, one-parameter views.
    """

    def __init__(self, a, b):
        self._eig_a = None        # (values, vectors) of A, when known
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            _check_pair(a, b)
            self._eig_a = eig_hermitian(a)
            a, b = a.mat, b.mat
        self.a = a
        self.b = b
        self._root_a = None       # (A^{1/2}, A^{-1/2})
        self._mid = None          # A^{-1/2} B A^{-1/2}: (values, vectors)
        self._cross = None        # A^{-1} # B: (matrix, values, vectors)

    def _roots(self):
        if self._root_a is None:
            vals, q = self._eig_a or eigh_stack(self.a)
            rt = np.sqrt(vals)[..., None, :]
            qh = _ct(q)
            self._root_a = ((q * rt) @ qh, (q / rt) @ qh)
        return self._root_a

    def sharps(self, taus) -> np.ndarray:
        """A #_tau B for every pair and every tau."""
        ra, ria = self._roots()
        if self._mid is None:
            self._mid = _positive_product(ria @ self.b @ ria)[1:]
        ra = ra[..., None, :, :]
        return _herm(ra @ _powers(*self._mid, taus) @ ra)

    def _cross_eig(self) -> tuple:
        """A^{-1} # B, the generator of the spectral mean, with its
        eigendecomposition."""
        if self._cross is None:
            ra, ria = self._roots()
            _, vals, q = _positive_product(ra @ self.b @ ra)
            root = (q * np.sqrt(vals)[..., None, :]) @ _ct(q)
            self._cross = _positive_product(ria @ root @ ria)
        return self._cross

    def cross_powers(self, taus) -> np.ndarray:
        """(A^{-1} # B)^tau for every pair and every tau."""
        return _powers(*self._cross_eig()[1:], taus)

    def naturals(self, taus) -> np.ndarray:
        """A @_tau B for every pair and every tau."""
        ct = self.cross_powers(taus)
        return _herm(ct @ self.a[..., None, :, :] @ ct)

    def spectra(self, taus) -> tuple:
        """Eigenvalues, descending, of A #_tau B and of A @_tau B for every
        pair and every tau (two arrays stack + (K, n)), from one stacked
        decomposition."""
        vals = eigh_stack(np.stack([self.sharps(taus), self.naturals(taus)]), vectors=False)
        return vals[0], vals[1]

    def sharp(self, t: float) -> SpdMatrix:
        return SpdMatrix._wrap(self.sharps([t])[0])

    def cross(self) -> SpdMatrix:
        """A^{-1} # B, the generator of the spectral mean."""
        return SpdMatrix._wrap(self._cross_eig()[0])

    def natural(self, t: float) -> SpdMatrix:
        return SpdMatrix._wrap(self.naturals([t])[0])


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
    g = pair.cross_powers([0.5])[0] @ ra
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
    """Named residuals from one identity-suite evaluation, passed iff all
    are at most IDENTITY_TOL."""

    params: tuple
    residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    @property
    def passed(self) -> bool:
        return self.max_residual <= IDENTITY_TOL


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
    """The identity laws of one pair over a (t, r, s) grid.

    The laws fall into groups by the parameters they read:

    - none: natural_inverse_half, link_half, riccati_midpoint;
    - t: natural_inverse_t, natural_swap_t, sharp_swap_t, link_t_left,
      link_t_right, conjugation_t_p, conjugation_t_q, sharp_determinant,
      natural_determinant;
    - (r, s): sharp_chain, natural_chain;
    - (t, r, s): natural_interpolation.

    ``residuals`` evaluates each group once, over a stacked parameter
    axis: the means at a set of parameters come from one ``sharps`` /
    ``naturals`` call, each family of derived pairs is one stacked
    ``_MeanPair`` (the links (A^{-1}, A @_t B) and (inv(B @_t A), B), the
    chain pairs (A #_r B, B) and (A @_r B, B), the interpolation pairs
    (A @_r B, A @_s B)), and each law's residuals are one reduction.  The
    parameter-free laws ride along the t axis at t = 1/2.  ``grid`` wraps
    each triple's residuals in a report, and ``evaluate`` is the grid on
    one triple.
    """

    def __init__(self, a: SpdMatrix, b: SpdMatrix):
        self.pair = _MeanPair(a, b)
        self.a = a.mat
        self.b = b.mat
        self.swapped = _MeanPair(b, a)
        self.a_inv = _inverse(self.a)
        self.inverse = _MeanPair(self.a_inv, _inverse(self.b))
        self._det_a = spd_det(a)
        self._det_b = spd_det(b)

    def _t_laws(self, t: np.ndarray) -> dict:
        """Laws of the t group over t (shape (T,)) and the parameter-free
        laws (scalars)."""
        pair, swapped, a, b = self.pair, self.swapped, self.a, self.b
        th = np.append(t, 0.5)
        nat = pair.naturals(th)
        nat_inv = _inverse(nat)
        sharp = pair.sharps(th)
        swap_nat = swapped.naturals(t)
        # Links between the means: A^{-1} # (A @_t B) = (A^{-1} # B)^t, and
        # inv(B @_t A) # B = (A^{-1} # B)^t.  The first right link is the
        # parameter-free law's inv(A @_1/2 B) # B.
        cross_t = pair.cross_powers(t)
        c = _MeanPair(self.a_inv, nat).sharps([0.5])[:, 0]
        right = _MeanPair(
            np.concatenate([nat_inv[-1:], _inverse(swap_nat)]), b
        ).sharps([0.5])[:, 0]
        # Conjugation form: with C_t = A^{-1} # (A @_t B),
        # A @_t B = C_t A C_t and B @_t A = C_t^{-1} B C_t^{-1}.
        c_inv = _inverse(c[:-1])
        # Determinant scaling law shared by both means.
        det_target = _pow(self._det_a, 1.0 - t) * _pow(self._det_b, t)
        det_scale = np.maximum(np.abs(det_target), 1e-300)
        dets = np.prod(eigh_stack(np.stack([sharp[:-1], nat[:-1]]), vectors=False), axis=-1)
        natural_inverse = rel_residual(nat_inv, self.inverse.naturals(th))
        # Midpoint equation: g = A # B uniquely solves g A^{-1} g = B on SPD.
        g = sharp[-1]
        return {
            "natural_inverse_half": natural_inverse[-1],
            "link_half": rel_residual(c[-1], right[0]),
            "riccati_midpoint": rel_residual(g @ self.a_inv @ g, b),
            "natural_inverse_t": natural_inverse[:-1],
            "natural_swap_t": rel_residual(nat[:-1], swapped.naturals(1.0 - t)),
            "sharp_swap_t": rel_residual(sharp[:-1], swapped.sharps(1.0 - t)),
            "link_t_left": rel_residual(c[:-1], cross_t),
            "link_t_right": rel_residual(right[1:], cross_t),
            "conjugation_t_p": rel_residual(c[:-1] @ a @ c[:-1], nat[:-1]),
            "conjugation_t_q": rel_residual(c_inv @ b @ c_inv, swap_nat),
            "sharp_determinant": np.abs(dets[0] - det_target) / det_scale,
            "natural_determinant": np.abs(dets[1] - det_target) / det_scale,
        }

    def _rs_laws(self, t: np.ndarray, r: np.ndarray, s: np.ndarray) -> dict:
        """Geodesic reparameterization for both means over the (r, s) pairs
        (shape (P,)), and the interpolation law over (t, (r, s)) (shape
        (T, P))."""
        pair, b = self.pair, self.b
        nat_r = pair.naturals(r)
        u = (s / (1.0 - r))[:, None]
        sharp_chain = _MeanPair(pair.sharps(r), b).sharps(u)[:, 0]
        natural_chain = _MeanPair(nat_r, b).naturals(u)[:, 0]
        # Interpolation: (A @_r B) @_t (A @_s B) = A @_{(1-t)r + ts} B.
        interp = _MeanPair(nat_r, pair.naturals(s)).naturals(t)
        target = pair.naturals((1.0 - t) * r[:, None] + t * s[:, None])
        return {
            "sharp_chain": rel_residual(pair.sharps(r + s), sharp_chain),
            "natural_chain": rel_residual(pair.naturals(r + s), natural_chain),
            "natural_interpolation": rel_residual(interp, target).T,
        }

    def residuals(self, t_values, r_values, s_values) -> tuple[list, np.ndarray]:
        """The grid's triples, t outermost, then r, then s, and their
        residuals: an array (triple, law), laws in ``IDENTITY_NAMES`` order.

        Triples with r + s > 1 or r >= 1 are skipped (the reparameterization
        laws are not defined there); every other triple is validated.
        """
        rs = [
            (r, s)
            for r in r_values
            for s in s_values
            if r + s <= 1.0 + 1e-15 and r < 1.0
        ]
        triples = [(t, r, s) for t in t_values for r, s in rs]
        for triple in triples:
            _check_suite_params(*triple)
        if not triples:
            return [], np.zeros((0, len(IDENTITY_NAMES)))
        t = np.array(t_values, dtype=float)
        r, s = np.array(rs, dtype=float).T
        laws = {
            **{name: np.asarray(val)[..., None] for name, val in self._t_laws(t).items()},
            **self._rs_laws(t, r, s),
        }
        shape = (len(t), len(rs))
        table = np.stack(
            [np.broadcast_to(laws[name], shape) for name in IDENTITY_NAMES], axis=-1
        )
        return triples, table.reshape(len(triples), len(IDENTITY_NAMES))

    def grid(self, t_values, r_values, s_values) -> list[MeanIdentityReport]:
        """One report per triple of ``residuals``."""
        triples, table = self.residuals(t_values, r_values, s_values)
        return [
            MeanIdentityReport(params=triple, residuals=dict(zip(IDENTITY_NAMES, row)))
            for triple, row in zip(triples, table.tolist())
        ]

    def evaluate(self, t: float, r: float, s: float) -> MeanIdentityReport:
        _check_suite_params(t, r, s)
        return self.grid((t,), (r,), (s,))[0]


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
    are well posed.  The same computation as ``mean_identity_grid`` on the
    one-triple grid.
    """
    return _IdentityContext(a, b).evaluate(t, r, s)


def mean_identity_grid(
    a: SpdMatrix,
    b: SpdMatrix,
    t_values,
    r_values,
    s_values,
) -> list[MeanIdentityReport]:
    """Identity suite over a full (t, r, s) grid, one report per triple.

    Each law is evaluated once over the grid, as stacked array expressions
    (see ``_IdentityContext``).

    Triples with r + s > 1 or r = 1 are skipped (the reparameterization
    laws are not defined there).
    """
    return _IdentityContext(a, b).grid(t_values, r_values, s_values)
