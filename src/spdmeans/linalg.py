"""Deterministic dense complex linear algebra.

Validated matrix types (Hermitian, positive definite, unitary) plus the
eigendecomposition, matrix-function, polar and spectrum kernels every other
module builds on.  The decompositions are LAPACK's (``eigh``, ``eigvals``,
``svd``) with a canonical eigenvector phase and a stable descending sort, so
identical inputs give identical outputs run to run.  Every spectral
function Q diag(f(lambda)) Q* of the package is assembled here, by
``_assemble``; a Hermitian one, each seeded draw among them, by
``HermitianMatrix._from_eig(s)``, which keep (Q, f(lambda)) as its
eigendecomposition.  Every ``HermitianMatrix`` is made with its
``EigenPair``, by ``HermitianMatrix._wrap``: the pair it was assembled
from, else one ``eigh``, so ``eig_hermitian`` only reads it.
``_polar_unitary`` returns an unchecked array; each unitary the package
returns is a validated ``UnitaryMatrix``.

Each range check of the package is one function here, called with the
caller's message and error class: ``require_spd_range`` (condition number
below 1e12), ``require_exp_range``
(exponents below log(float max / 2)), ``require_same_dimension``,
``unitarity_error`` and ``hermitian_error``.  Every ``SpdMatrix``, however
it is made, has condition number below 1e12 (see ``SpdMatrix``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainError, NoConvergence, SingularInput

HERMITIAN_TOL = 1e-10
SPD_TOL = 1e-12
UNITARY_TOL = 1e-10
_EXP_LIMIT = float(np.log(np.finfo(float).max / 2.0))
_NOT_SPD = "matrix is not positive definite: eigenvalue range"
_SINGULAR = "polar decomposition requires an invertible input: singular values in"


def _ct(arr: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the trailing two axes."""
    return arr.conj().swapaxes(-1, -2)


def _herm(arr: np.ndarray) -> np.ndarray:
    """(M + M*) / 2 for every matrix of a stack."""
    return (arr + _ct(arr)) / 2.0


def _pow(base, expo) -> np.ndarray:
    """base ** expo on contiguous, explicitly broadcast operands.

    numpy sends broadcast (zero-stride) operands of ``power`` through a
    scalar loop and contiguous ones through a vector loop, and the two can
    round differently, as does a one-element power written over its base.
    With contiguous operands and a fresh output, every layout and size
    takes the vector loop.
    """
    shape = np.broadcast(base, expo).shape
    full_base, full_expo = np.empty(shape), np.empty(shape)
    full_base[...] = base
    full_expo[...] = expo
    return np.power(full_base, full_expo)


def _assemble(q: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Q diag(vals) Q*, symmetrized, for every matrix of a stack: the one
    assembly of a spectral function from an eigendecomposition."""
    return _herm((q * vals[..., None, :]) @ _ct(q))


def _as_square_complex(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DomainError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError("matrix entries must be finite")
    return arr


def require_spd_range(vals, what, error=DomainError) -> None:
    """Raise ``error`` unless each set of descending values in ``vals``
    (shape (..., n)) has vals[-1] > SPD_TOL * vals[0]: a condition number
    below 1e12.  The message is ``what`` (``what(k)`` for a first failing
    set k of the stack, in flat order) and that set's range."""
    # Stack axes reversed, so one set gives numpy scalars, not 0-d arrays.
    lo, hi = vals.T[-1], vals.T[0]
    if not all((lo > SPD_TOL * hi).flat):
        lo, hi = np.ravel(lo.T), np.ravel(hi.T)
        k = int(np.argmin(lo > SPD_TOL * hi))
        head = what(k) if callable(what) else what
        raise error(f"{head} [{lo[k]:.3e}, {hi[k]:.3e}]")


def require_exp_range(bound, what) -> None:
    """DomainError unless each entry of ``bound``, a bound on the |x| of the
    e^x formed, is below log(float max / 2) = 709.09, so e^x and the sum in
    (M + M*) / 2 stay finite; the message is ``what`` (``what(k)`` for a
    first offending entry k of a stack) and the bound."""
    bound = np.atleast_1d(bound)
    ok = bound < _EXP_LIMIT
    if not all(ok.flat):
        k = int(np.argmin(ok))
        head = what(k) if callable(what) else what
        raise DomainError(f"{head} = {bound[k]:.4g} is not below log(float max / 2)")


def require_same_dimension(a, b) -> None:
    """DimensionMismatch unless the matrices ``a`` and ``b`` have the same n."""
    if a.n != b.n:
        raise DimensionMismatch(f"dimension mismatch: {a.n} vs {b.n}")


def unitarity_error(arr: np.ndarray):
    """None if max |U*U - I| <= UNITARY_TOL, else a DomainError."""
    defect = float(np.abs(_ct(arr) @ arr - np.eye(arr.shape[-1])).max())
    if defect <= UNITARY_TOL:
        return None
    return DomainError(f"matrix is not unitary: ‖U*U − I‖_max = {defect:.3e}")


def hermitian_error(arr: np.ndarray):
    """None if max |M - M*| <= HERMITIAN_TOL * max(1, max |M|), else a DomainError."""
    scale = max(1.0, float(np.abs(arr).max()))
    defect = float(np.abs(arr - arr.conj().T).max())
    if defect <= HERMITIAN_TOL * scale:
        return None
    msg = f"asymmetry {defect:.3e} exceeds {HERMITIAN_TOL:.0e} * {scale:.3e}"
    return DomainError(f"matrix is not Hermitian: {msg}")


class ComplexMatrix:
    """Square complex matrix with finite entries."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        arr = _as_square_complex(mat).copy()
        arr.setflags(write=False)
        self.mat = arr

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


class HermitianMatrix(ComplexMatrix):
    """Hermitian matrix; construction symmetrizes to (M + M*)/2.

    Inputs whose asymmetry exceeds ``HERMITIAN_TOL`` relative to the largest
    entry are rejected rather than silently repaired.  Every instance holds
    its ``EigenPair`` from the moment it is made: the constructor runs
    ``eigh_stack`` on the symmetrized input (NoConvergence if it fails),
    ``_from_eig(s)`` keep the pairs they assemble from.
    """

    __slots__ = ("_eig",)

    def __init__(self, mat):
        arr = _as_square_complex(mat)
        if (err := hermitian_error(arr)) is not None:
            raise err
        made = self._wrap(_herm(arr))
        self.mat, self._eig = made.mat, made._eig
        self._check_values(self._eig.values)

    @classmethod
    def _wrap(cls, arr: np.ndarray, pair=None) -> "HermitianMatrix":
        """Internal: wrap ``arr`` as it is, unchecked, with its ``EigenPair``:
        ``pair`` (descending values, matching vectors) if given, else
        ``eigh_stack(arr)``.  The one builder of an ``EigenPair``; all three
        arrays become read-only.  Precondition: ``arr == arr.conj().T``
        exactly, as ``_assemble`` output is; symmetrize a product P = U X U*
        to (P + P*)/2 first."""
        vals, qs = eigh_stack(arr) if pair is None else pair
        for part in (arr, vals, qs):
            part.setflags(write=False)
        obj = object.__new__(cls)
        obj.mat = arr
        obj._eig = EigenPair(vals, qs)
        return obj

    @staticmethod
    def _check_values(desc: np.ndarray) -> None:
        """Internal: the check of a new matrix's descending values: none."""

    @classmethod
    def _from_eig(cls, q: np.ndarray, vals: np.ndarray, *args) -> "HermitianMatrix":
        """Internal: the one matrix of ``_from_eigs``, assembled unstacked (same bits)."""
        order = (-vals).argsort(kind="stable")
        desc = vals[order]
        cls._check_values(desc, *args)
        return cls._wrap(_assemble(q, vals).astype(complex, copy=False), (desc, q.take(order, -1)))

    @classmethod
    def _from_eigs(cls, q: np.ndarray, vals: np.ndarray, *args) -> tuple:
        """Internal: Q diag(vals) Q* for each matrix of a stack, q (m, n, n) and
        vals (m, n), by one assembly in q's dtype cast to complex after
        ``_check_values(desc, *args)``, each matrix holding its sorted pair:
        (the matrices, their stack, their descending values (m, n)), both
        read-only."""
        order = (-vals).argsort(axis=-1, kind="stable")
        desc = np.take_along_axis(vals, order, -1)
        cls._check_values(desc, *args)
        stack = _assemble(q, vals).astype(complex, copy=False)
        stack.setflags(write=False)
        desc.setflags(write=False)
        mats = [cls._wrap(mat, (d, qi.take(oi, -1)))
                for mat, d, qi, oi in zip(stack, desc, q, order)]
        return mats, stack, desc


class SpdMatrix(HermitianMatrix):
    """Hermitian positive definite matrix with condition number below 1e12.

    Every instance passes ``require_spd_range``, however it is made: the
    constructor and ``_from_eig(s)``, which every other producer calls, run
    ``_check_values`` on the descending values of each matrix they make.
    """

    __slots__ = ()

    @staticmethod
    def _check_values(desc: np.ndarray, what=_NOT_SPD, error=DomainError) -> None:
        """Internal: ``require_spd_range`` with the caller's message and error."""
        require_spd_range(desc, what, error)


class UnitaryMatrix(ComplexMatrix):
    """Unitary matrix: ‖U*U − I‖_max ≤ UNITARY_TOL enforced at construction."""

    __slots__ = ()

    def __init__(self, mat):
        super().__init__(mat)
        if (err := unitarity_error(self.mat)) is not None:
            raise err


class EigenPair(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, as two read-only arrays
    (built only by ``HermitianMatrix._wrap``).

    ``values`` are real and sorted descending (stable ties); the columns of
    ``vectors`` (real if built from a real Q) are the matching orthonormal eigenvectors.
    """

    values: np.ndarray
    vectors: np.ndarray


def _canonical_phase(vecs: np.ndarray) -> None:
    """Rotate each row of ``vecs`` (one eigenvector a row) in place so its
    largest-modulus entry is real and positive.

    LAPACK fixes eigenvectors only up to a unit phase; this pins the phase
    (first index wins a tie), and leaves real eigenvectors real.
    """
    rows = np.arange(vecs.shape[0])
    piv = np.abs(vecs).argmax(axis=1)
    top = vecs[rows, piv]
    mod = np.abs(top)
    vecs *= (top.conj() / mod)[:, None]
    vecs[rows, piv] = mod


def eigh_stack(arr: np.ndarray) -> tuple:
    """The one eigen kernel: LAPACK ``eigh`` of a stack ``(..., n, n)`` of
    Hermitian arrays, as (values, vectors).  Values come back sorted
    descending, shape ``(..., n)``; ties keep LAPACK's ascending order (stable
    sort).  The matching eigenvector columns, shape ``(..., n, n)``, carry the
    canonical phase of ``_canonical_phase``.  Only the lower triangle of each
    matrix is read."""
    try:
        vals, q = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Hermitian eigendecomposition failed: {exc}") from exc
    shape, n = q.shape, q.shape[-1]
    # Every eigenvector of the stack as a row of one (m n, n) array: row
    # k n + j of ``vecs`` belongs to the j-th largest eigenvalue of matrix k,
    # so matrix k's sort indices are offset by k n.
    order = np.argsort(-vals, axis=-1, kind="stable").reshape(-1, n)
    order += np.arange(0, order.size, n)[:, None]
    sorted_rows = order.reshape(-1)
    vecs = q.swapaxes(-1, -2).reshape(-1, n)[sorted_rows]
    _canonical_phase(vecs)
    return (
        vals.reshape(-1)[sorted_rows].reshape(vals.shape),
        np.ascontiguousarray(vecs.reshape(shape).swapaxes(-1, -2)),
    )


def eig_hermitian(m: HermitianMatrix) -> EigenPair:
    """Eigendecomposition of a Hermitian matrix: the ``EigenPair`` it was made
    with (``eigh_stack`` of its array, unless it was assembled from one)."""
    return m._eig


def mat_exp(m: HermitianMatrix) -> SpdMatrix:
    """exp(M) for Hermitian M; the result is positive definite.
    ``DomainError`` unless max |lambda| passes ``require_exp_range`` and the
    result's eigenvalues ``require_spd_range``."""
    pair = eig_hermitian(m)
    require_exp_range(np.abs(pair.values).max(), "exp(M) leaves the float range: max |eig M|")
    return SpdMatrix._from_eig(pair.vectors, np.exp(pair.values))


def mat_log(m: SpdMatrix) -> HermitianMatrix:
    """Principal logarithm of a positive definite matrix."""
    if not isinstance(m, SpdMatrix):
        raise DomainError("mat_log requires a positive definite matrix")
    pair = eig_hermitian(m)
    return HermitianMatrix._from_eig(pair.vectors, np.log(pair.values))


def mat_pow(m: SpdMatrix, t: float) -> SpdMatrix:
    """M^t of a positive definite matrix through its eigendecomposition;
    ``DomainError`` for any other input, and outside ``require_spd_range``."""
    if not isinstance(m, SpdMatrix):
        raise DomainError("mat_pow requires a positive definite matrix")
    pair = eig_hermitian(m)
    # Far outside the range lambda^t can overflow; inf fails the SPD range.
    with np.errstate(over="ignore"):
        vals = pair.values ** t
    return SpdMatrix._from_eig(pair.vectors, vals)


def svd(arr: np.ndarray, vectors: bool = True):
    """LAPACK's SVD (W, sigma, V*) of an array, sigma descending (sigma alone
    unless ``vectors``); ``NoConvergence`` if it fails."""
    try:
        return np.linalg.svd(arr, compute_uv=vectors)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"singular value decomposition failed: {exc}") from exc


def _polar_unitary(arr: np.ndarray) -> np.ndarray:
    """The unitary factor U = W V* of an invertible array with SVD W S V*, an
    unchecked array.  SingularInput unless S passes ``require_spd_range``."""
    w, svals, vh = svd(arr)
    require_spd_range(svals, _SINGULAR, SingularInput)
    return w @ vh


def polar(m: ComplexMatrix, side: str = "left") -> tuple[UnitaryMatrix, SpdMatrix]:
    """Polar decomposition of an invertible matrix, through the SVD.

    With M = W S V*, the unitary factor is U = W V* on both sides, as in
    ``_polar_unitary``; SingularInput, from P's range check, unless S
    passes ``require_spd_range``.
    side='left' returns (U, P) with M = P U and P = W S W* = (M M*)^{1/2};
    side='right' returns (U, P) with M = U P and P = V S V* = (M* M)^{1/2}.
    """
    if side not in ("left", "right"):
        raise DomainError(f"polar side must be 'left' or 'right', got {side!r}")
    w, svals, vh = svd(m.mat)
    p = SpdMatrix._from_eig(w if side == "left" else _ct(vh), svals, _SINGULAR, SingularInput)
    return UnitaryMatrix(w @ vh), p


def _sort_by_modulus(vals: np.ndarray) -> np.ndarray:
    """Sort descending by modulus; ties by argument ascending in (−π, π]."""
    order = np.lexsort((np.angle(vals), -np.abs(vals)))
    return np.ascontiguousarray(vals[order])


def spectrum(m: ComplexMatrix) -> np.ndarray:
    """Eigenvalues of a general square matrix, sorted by modulus descending.

    Hermitian inputs take the ``eig_hermitian`` path (exactly real output);
    everything else goes through LAPACK ``eigvals``.
    """
    a = m.mat
    if isinstance(m, HermitianMatrix) or hermitian_error(a) is None:
        herm = m if isinstance(m, HermitianMatrix) else HermitianMatrix._wrap(_herm(a))
        vals = eig_hermitian(herm).values.astype(complex)
        return _sort_by_modulus(vals)
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue computation failed: {exc}") from exc
    return _sort_by_modulus(vals)
