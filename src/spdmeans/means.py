"""Metric and spectral geometric means of positive definite matrices.

The two parameterized means

    sharp_t  :  A #_t B = A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}
    natural_t:  A @_t B = (A^{-1} # B)^t A (A^{-1} # B)^t

plus the unitary intertwiner relating the spectral mean to
(A^{1/2} B A^{1/2})^{1/2}, the Loewner order predicate, and a residual
suite for the algebraic identity laws the means satisfy.

Both means come from one algorithm, ``_MeanPair``: Iannazzo's factor form
(NLAA 2016) in A's eigenbasis.  Each mean is a Gram product F F* whose
eigenvalues are the squared singular values of F, so it is positive by
construction and no product of the pair is decomposed.  Every
``SpdMatrix``, however it is made, has condition number below 1e12, so a
mean returned as one raises ``DomainError`` unless those values pass
``require_spd_range``, as ``orbit.build_target``'s targets do.  Against the
60-digit fixture ``tests/data/mean_reference.json`` the max-entry relative
error stays within 12 sqrt(cond A cond B) eps (``TestMeanAccuracy`` bounds
it at 32).  The identity laws are never used as the computation path.

``_MeanPair`` takes two ``SpdMatrix``, or stacks of pairs ``(..., n, n)``
as roots (h, Q), and takes the means at every parameter of a set in one
call; powers run on contiguous, broadcast-out operands, so a pair in a
stack gets the same bits as alone.  An ``SpdMatrix`` starts from the
eigendecomposition it was made with (a seeded draw, or ``mat_exp`` of one,
keeps the pair it is built from), which can differ from a fresh ``eigh`` in
the last bits.
``_IdentityContext`` evaluates the identity laws over a whole parameter grid
as a handful of stacked expressions.
"""

from __future__ import annotations

import numpy as np

from .errors import ParamOutOfRange
from .linalg import (
    HermitianMatrix,
    SpdMatrix,
    UnitaryMatrix,
    _assemble,
    _ct,
    _herm,
    _polar_unitary,
    _pow,
    eig_hermitian,
    require_same_dimension,
    svd,
)

IDENTITY_TOL = 1e-10
ORDER_TOL = 1e-12
_MEAN_RANGE = "mean is not positive definite to working precision: Gram eigenvalues in"


def _check_pair(a: SpdMatrix, b: SpdMatrix) -> None:
    if not isinstance(a, SpdMatrix) or not isinstance(b, SpdMatrix):
        raise ParamOutOfRange("means are defined for positive definite matrices")
    require_same_dimension(a, b)


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


def _root(m) -> tuple:
    """(h, Q), M = Q diag(h^2) Q*: a tuple as it is, an ``SpdMatrix`` from
    the eigendecomposition it was made with."""
    if isinstance(m, tuple):
        return m
    pair = eig_hermitian(m)
    return np.sqrt(pair.values), pair.vectors


def _gram_root(left: np.ndarray, inner: np.ndarray) -> tuple:
    """The root (sigma, left U) of F F*, F = left @ inner with unitary left,
    from the SVD U diag(sigma) W* of inner."""
    u, sig, _ = svd(inner)
    return sig, left @ u


def _gram(left: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """F F* for every factor F = left @ inner of a stack."""
    f = left @ inner
    return _herm(f @ _ct(f))


def _inverse_factors(left: np.ndarray, inner: np.ndarray) -> tuple:
    """(left, inner^{-*}), factors of (F F*)^{-1} for F = left @ inner."""
    return left, _ct(np.linalg.inv(inner))


def _factor(left: np.ndarray, inner: np.ndarray) -> tuple:
    """Gram factors F = left @ inner as the B of a ``_MeanPair``: (1, F)."""
    return np.ones(inner.shape[-1]), left @ inner


class _MeanPair:
    """Both means of a stack of pairs, from Gram factors in A's eigenbasis.

    A is held as its root (h_a, Q_a), A = Q_a diag(h_a^2) Q_a*, and B as any
    Gram factor F_b = Q_b diag(h_b) (the means are congruence invariant).
    With M = Q_a* F_b, the SVDs P sigma W* of h_a^{-1} M, P' sigma' W'* of
    h_a M and P_C S_C W_C* of h_a^{-1} P' sigma'^{1/2}:

      A #_t B = H H*,  H = Q_a (h_a P sigma^t)
      A^{-1} # B = C,  C^t = (Q_a P_C) S_C^{2t} (Q_a P_C)*
      A @_t B = C^t A C^t = L L*,  L = (Q_a P_C) (S_C^{2t} P_C* h_a)

    ``a`` and ``b``: two ``SpdMatrix``, or two tuples (h, Q) of stacks
    ``(..., n)`` and ``(..., n, n)`` that broadcast against each other (A's
    a root, B's any factor Q diag(h)), each made (h, Q) by ``_root``.
    ``sharp_factors`` and ``natural_factors`` give (left, inner), left
    unitary, for every pair and every tau of ``taus`` (last axis the
    parameters, leading axes broadcast against the stack), inner stack +
    (K, n, n); ``sharps``, ``naturals``, ``cross_powers`` and ``spectra``
    (squared singular values of inner) are arrays, and ``sharp(t)``,
    ``natural(t)``, ``cross()`` the one-pair ``SpdMatrix`` views
    (DomainError unless in ``require_spd_range``).
    """

    def __init__(self, a, b):
        if not (isinstance(a, tuple) and isinstance(b, tuple)):
            _check_pair(a, b)
        self.h, self.q = _root(a)
        self._hb, q_b = _root(b)
        self._m = _ct(self.q) @ q_b  # Q_a* F_b, before the column scaling by h_b
        self._mid = None          # (P, sigma) of the metric mean
        self._cross = None        # (Q_a P_C, P_C, S_C) of A^{-1} # B

    def _mid_svd(self) -> tuple:
        if self._mid is None:
            self._mid = svd(self._m / self.h[..., :, None] * self._hb[..., None, :])[:2]
        return self._mid

    def _cross_svd(self) -> tuple:
        if self._cross is None:
            h = self.h[..., :, None]
            p, sig, _ = svd(h * self._m * self._hb[..., None, :])
            p_c, s_c, _ = svd(p * np.sqrt(sig)[..., None, :] / h)
            self._cross = (self.q @ p_c, p_c, s_c)
        return self._cross

    def sharp_factors(self, taus) -> tuple:
        """(Q_a, h_a P sigma^tau): A #_tau B for every pair and every tau."""
        p, sig = self._mid_svd()
        powers = _pow(sig[..., None, :], np.asarray(taus, dtype=float)[..., None])
        inner = self.h[..., None, :, None] * (p[..., None, :, :] * powers[..., None, :])
        return np.broadcast_to(self.q[..., None, :, :], inner.shape), inner

    def natural_factors(self, taus) -> tuple:
        """(Q_a P_C, S_C^{2 tau} P_C* h_a): A @_tau B for every pair and
        every tau."""
        left, p_c, s_c = self._cross_svd()
        powers = _pow(s_c[..., None, :], 2.0 * np.asarray(taus, dtype=float)[..., None])
        inner = powers[..., :, None] * _ct(p_c)[..., None, :, :] * self.h[..., None, None, :]
        return np.broadcast_to(left[..., None, :, :], inner.shape), inner

    def sharps(self, taus) -> np.ndarray:
        """A #_tau B for every pair and every tau."""
        return _gram(*self.sharp_factors(taus))

    def naturals(self, taus) -> np.ndarray:
        """A @_tau B for every pair and every tau."""
        return _gram(*self.natural_factors(taus))

    def cross_powers(self, taus) -> np.ndarray:
        """(A^{-1} # B)^tau for every pair and every tau."""
        left, _, s_c = self._cross_svd()
        powers = _pow(s_c[..., None, :], 2.0 * np.asarray(taus, dtype=float)[..., None])
        return _assemble(left[..., None, :, :], powers)

    def spectra(self, taus) -> tuple:
        """Eigenvalues, descending, of A #_tau B and A @_tau B (two arrays
        stack + (K, n)): squared singular values, from one stacked SVD."""
        inner = np.stack([self.sharp_factors(taus)[1], self.natural_factors(taus)[1]])
        sig = svd(inner, vectors=False)
        return sig[0] ** 2, sig[1] ** 2

    def sharp(self, t: float) -> SpdMatrix:
        sig, q = _gram_root(*(part[0] for part in self.sharp_factors([t])))
        return SpdMatrix._from_eig(q, sig ** 2, _MEAN_RANGE)

    def cross(self) -> SpdMatrix:
        """A^{-1} # B, the generator of the spectral mean."""
        left, _, s_c = self._cross_svd()
        return SpdMatrix._from_eig(left, s_c ** 2, _MEAN_RANGE)

    def natural(self, t: float) -> SpdMatrix:
        sig, q = _gram_root(*(part[0] for part in self.natural_factors([t])))
        return SpdMatrix._from_eig(q, sig ** 2, _MEAN_RANGE)


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

    U is the polar unitary of the t = 1/2 natural factor of ``_MeanPair``
    taken in the frame of A^{1/2}: L Q_a* = (A^{-1} # B)^{1/2} A^{1/2}, where
    L L* = A @ B and A = Q_a diag(h_a^2) Q_a*.
    """
    pair = _MeanPair(a, b)
    left, inner = pair.natural_factors([0.5])
    return UnitaryMatrix(_polar_unitary(left[0] @ inner[0] @ _ct(pair.q)))


def loewner_leq(a: HermitianMatrix, b: HermitianMatrix) -> bool:
    """Loewner order: True iff B - A is positive semidefinite (within
    ORDER_TOL relative slack)."""
    require_same_dimension(a, b)
    diff = b.mat - a.mat
    scale = float(np.abs(diff).max())
    if scale == 0.0:
        return True
    vals = eig_hermitian(HermitianMatrix._wrap(diff)).values
    return bool(vals[-1] >= -ORDER_TOL * scale)


def spd_det(m: SpdMatrix) -> float:
    """Determinant via the eigenvalues the matrix was made with."""
    return float(np.prod(eig_hermitian(m).values))


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
    axis: the means at a set of parameters come from one factor call, each
    family of derived pairs is one stacked ``_MeanPair`` (the links
    (A^{-1}, A @_t B) and (inv(B @_t A), B), the chain pairs (A #_r B, B)
    and (A @_r B, B), the interpolation pairs (A @_r B, A @_s B)), and each
    law's residuals are one reduction.  A derived mean enters a pair as B
    through its Gram factor and as A through that factor's root (an inverse
    through the inverse factor), and A^{-1}, B^{-1} through the roots
    (1/h, Q) of A and B, so no derived B is decomposed.  Each group is
    taken on its own array axes, as ``_MeanPair`` broadcasts them: the chain
    pairs are rooted once per r, a stack (R,) taking the parameters
    u = s / (1 - r) of shape (R, S), and the interpolation pairs broadcast
    A's roots (R, 1) against B's factors (1, S) and take t on the last
    axis.  The parameter-free laws ride along the t axis at t = 1/2.
    ``evaluate`` returns the residuals of one triple as a dict.
    """

    def __init__(self, a: SpdMatrix, b: SpdMatrix):
        self.pair = _MeanPair(a, b)
        self.swapped = _MeanPair(b, a)
        self.a, self.b = a.mat, b.mat
        self.a_inv = _assemble(self.pair.q, 1.0 / eig_hermitian(a).values)
        self.b_root = (self.swapped.h, self.swapped.q)
        self.inverse = _MeanPair((1.0 / self.pair.h, self.pair.q),
                                 (1.0 / self.swapped.h, self.swapped.q))
        self._det_a = spd_det(a)
        self._det_b = spd_det(b)

    def _t_laws(self, t: np.ndarray) -> dict:
        """Laws of the t group over t (shape (T,)) and the parameter-free
        laws (scalars)."""
        pair, swapped, a, b = self.pair, self.swapped, self.a, self.b
        th = np.append(t, 0.5)
        nat_factors = pair.natural_factors(th)
        nat = _gram(*nat_factors)
        nat_inv_factors = _inverse_factors(*nat_factors)
        nat_inv = _gram(*nat_inv_factors)
        sharp = pair.sharps(th)
        swap_factors = swapped.natural_factors(t)
        swap_nat = _gram(*swap_factors)
        # Links between the means: A^{-1} # (A @_t B) = (A^{-1} # B)^t, and
        # inv(B @_t A) # B = (A^{-1} # B)^t.  The first right link is the
        # parameter-free law's inv(A @_1/2 B) # B.
        cross_t = pair.cross_powers(t)
        link = _MeanPair((self.inverse.h, self.inverse.q), _factor(*nat_factors))
        c_factors = [part[:, 0] for part in link.sharp_factors([0.5])]
        c = _gram(*c_factors)
        inv_right = [np.concatenate([nat_part[-1:], swap_part]) for nat_part, swap_part
                     in zip(nat_inv_factors, _inverse_factors(*swap_factors))]
        right = _MeanPair(_gram_root(*inv_right), self.b_root).sharps([0.5])[:, 0]
        # Conjugation form: with C_t = A^{-1} # (A @_t B),
        # A @_t B = C_t A C_t and B @_t A = C_t^{-1} B C_t^{-1}.
        c_inv = _gram(*_inverse_factors(*(part[:-1] for part in c_factors)))
        # Determinant scaling law shared by both means, on the products of
        # their Gram spectra (an eigvalsh of the assembled mean loses eps cond).
        det_target = _pow(self._det_a, 1.0 - t) * _pow(self._det_b, t)
        det_scale = np.maximum(np.abs(det_target), 1e-300)
        dets = np.prod(pair.spectra(t), axis=-1)
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
        """Geodesic reparameterization for both means over (r, s) (shape
        (R, S)), and the interpolation law over (t, r, s) (shape (T, R, S))."""
        pair, b = self.pair, self.b_root
        rs = r[:, None] + s
        u = s / (1.0 - r[:, None])
        sharp_r = _MeanPair(_gram_root(*pair.sharp_factors(r)), b)
        nat_r = _MeanPair(_gram_root(*pair.natural_factors(r)), b)
        # Interpolation: (A @_r B) @_t (A @_s B) = A @_{(1-t)r + ts} B.
        interp = _MeanPair((nat_r.h[:, None], nat_r.q[:, None]),
                           _factor(*pair.natural_factors(s))).naturals(t)
        target = pair.naturals((1.0 - t) * r[:, None, None] + t * s[:, None])
        return {
            "sharp_chain": rel_residual(pair.sharps(rs), sharp_r.sharps(u)),
            "natural_chain": rel_residual(pair.naturals(rs), nat_r.naturals(u)),
            "natural_interpolation": np.moveaxis(rel_residual(interp, target), -1, 0),
        }

    def residuals(self, t_values, r_values, s_values) -> np.ndarray:
        """The residuals of every grid triple, an array (triple, law): rows
        in grid order (t outermost, then r, then s), laws in
        ``IDENTITY_NAMES`` order.  ParamOutOfRange, before any law is
        evaluated, at the first triple that ``evaluate`` rejects.  Each law
        is taken on (t, r, s) array axes, so a value repeated in a grid is
        evaluated once per occurrence (no caller repeats one)."""
        t, r, s = (np.array(values, dtype=float) for values in (t_values, r_values, s_values))
        t_ok, r_ok, s_ok = ((0.0 <= v) & (v <= 1.0) for v in (t, r, s))  # _check_suite_params
        ok = t_ok[:, None, None] & (r_ok & (r < 1.0))[:, None] & s_ok & (
            r[:, None] + s <= 1.0 + 1e-15)
        if ok.size:  # the scalar rule on the first failing triple, else on the first
            i, j, k = np.unravel_index(np.argmin(ok), ok.shape)
            _check_suite_params(t_values[i], r_values[j], s_values[k])
        laws = {
            **{name: np.asarray(val)[..., None, None] for name, val in self._t_laws(t).items()},
            **self._rs_laws(t, r, s),
        }
        shape = (len(t), len(r), len(s))
        table = np.stack(
            [np.broadcast_to(laws[name], shape) for name in IDENTITY_NAMES], axis=-1
        )
        return table.reshape(-1, len(IDENTITY_NAMES))

    def evaluate(self, t: float, r: float, s: float) -> dict:
        """The residual of each law at (t, r, s), law name -> float;
        ParamOutOfRange unless r + s <= 1 and r < 1, so the
        reparameterization laws are well posed."""
        return dict(zip(IDENTITY_NAMES, self.residuals((t,), (r,), (s,)).tolist()[0]))


def _check_suite_params(t: float, r: float, s: float) -> None:
    for name, val in (("t", t), ("r", r), ("s", s)):
        _check_unit(name, val)
    if not (r + s <= 1.0 + 1e-15 and r < 1.0):
        raise ParamOutOfRange(f"need r + s <= 1 and r < 1, got r = {r}, s = {s}")
