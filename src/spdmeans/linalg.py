"""Deterministic dense complex linear algebra.

Validated matrix types (Hermitian, positive definite, unitary) plus the
eigendecomposition, matrix-function, polar and spectrum kernels every other
module builds on.  The decompositions are LAPACK's (``eigh``, ``eigvals``,
``svd``) with a canonical eigenvector phase and a stable descending sort, so
identical inputs give identical outputs run to run.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NoConvergence, SingularInput

HERMITIAN_TOL = 1e-10
SPD_TOL = 1e-12
UNITARY_TOL = 1e-10


def _as_square_complex(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DomainError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise DomainError("matrix entries must be finite")
    return arr


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
    entry are rejected rather than silently repaired.
    """

    __slots__ = ("_eig",)

    def __init__(self, mat):
        arr = _as_square_complex(mat)
        scale = max(1.0, float(np.abs(arr).max()))
        defect = float(np.abs(arr - arr.conj().T).max())
        if defect > HERMITIAN_TOL * scale:
            raise DomainError(
                f"matrix is not Hermitian: asymmetry {defect:.3e} exceeds "
                f"{HERMITIAN_TOL:.0e} * {scale:.3e}"
            )
        sym = (arr + arr.conj().T) / 2.0
        sym.setflags(write=False)
        self.mat = sym
        self._eig = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "HermitianMatrix":
        """Internal: wrap an array known to be Hermitian (symmetrized here)."""
        obj = object.__new__(cls)
        sym = (arr + arr.conj().T) / 2.0
        sym.setflags(write=False)
        obj.mat = sym
        obj._eig = None
        return obj


class SpdMatrix(HermitianMatrix):
    """Hermitian positive definite matrix.

    The constructor runs a full eigendecomposition to enforce
    ``lambda_min > SPD_TOL * lambda_max``; the decomposition is cached on the
    instance so later matrix functions reuse it.
    """

    __slots__ = ()

    def __init__(self, mat):
        super().__init__(mat)
        pair = eig_hermitian(self)
        lo, hi = pair.values[-1], pair.values[0]
        if not (lo > SPD_TOL * hi):
            raise DomainError(
                f"matrix is not positive definite: eigenvalue range "
                f"[{lo:.3e}, {hi:.3e}]"
            )

    @classmethod
    def _from_eig(cls, q: np.ndarray, vals: np.ndarray) -> "SpdMatrix":
        """Internal: assemble Q diag(vals) Q* and seed the eigen cache."""
        obj = cls._wrap((q * vals) @ q.conj().T)
        order = np.argsort(-vals, kind="stable")
        vecs = UnitaryMatrix.__new__(UnitaryMatrix)
        qs = np.ascontiguousarray(q[:, order])
        qs.setflags(write=False)
        vecs.mat = qs
        vs = np.ascontiguousarray(vals[order])
        vs.setflags(write=False)
        obj._eig = EigenPair(vs, vecs)
        return obj


class UnitaryMatrix(ComplexMatrix):
    """Unitary matrix: ‖U*U − I‖_max ≤ UNITARY_TOL enforced at construction."""

    __slots__ = ()

    def __init__(self, mat):
        arr = _as_square_complex(mat).copy()
        n = arr.shape[0]
        defect = float(np.abs(arr.conj().T @ arr - np.eye(n)).max())
        if defect > UNITARY_TOL:
            raise DomainError(
                f"matrix is not unitary: ‖U*U − I‖_max = {defect:.3e}"
            )
        arr.setflags(write=False)
        self.mat = arr


class EigenPair:
    """Eigendecomposition of a Hermitian matrix.

    ``values`` are real and sorted descending (stable ties); the columns of
    ``vectors`` are the matching orthonormal eigenvectors.
    """

    __slots__ = ("values", "vectors")

    def __init__(self, values: np.ndarray, vectors: UnitaryMatrix):
        vals = np.asarray(values, dtype=float)
        vals.setflags(write=False)
        self.values = vals
        self.vectors = vectors

    def reconstruct(self) -> np.ndarray:
        q = self.vectors.mat
        return (q * self.values) @ q.conj().T

    def apply(self, fn) -> np.ndarray:
        """Assemble Q diag(fn(values)) Q* as a plain array."""
        q = self.vectors.mat
        return (q * fn(self.values)) @ q.conj().T


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


def eigh_stack(arr: np.ndarray, vectors: bool = True):
    """Eigendecomposition of a stack ``(..., n, n)`` of Hermitian arrays.

    The one eigen kernel: LAPACK ``eigh`` (``eigvalsh`` when ``vectors`` is
    False) over the whole stack.  Values come back sorted descending, shape
    ``(..., n)``; ties keep LAPACK's ascending order (stable sort).  With
    ``vectors`` the matching eigenvector columns, shape ``(..., n, n)``,
    carry the canonical phase of ``_canonical_phase`` and the pair
    ``(values, vectors)`` is returned; otherwise the values alone.  Only the
    lower triangle of each matrix is read.
    """
    try:
        if not vectors:
            return np.ascontiguousarray(np.linalg.eigvalsh(arr)[..., ::-1])
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
    """Eigendecomposition of a Hermitian matrix: ``eigh_stack`` on one matrix.

    The result is cached on the input, so repeated calls on the same object
    are free.
    """
    if m._eig is not None:
        return m._eig
    return _cache_eig(m, *eigh_stack(m.mat))


def eig_hermitian_pair(a: HermitianMatrix, b: HermitianMatrix) -> tuple:
    """``(eig_hermitian(a), eig_hermitian(b))``, by one ``eigh_stack`` of the
    stack [a, b] when neither is cached (a matrix gets the same bits in a
    stack as alone); both results are cached on their inputs."""
    if a._eig is None and b._eig is None:
        vals, qs = eigh_stack(np.array([a.mat, b.mat]))
        _cache_eig(a, vals[0], qs[0])
        _cache_eig(b, vals[1], qs[1])
    return eig_hermitian(a), eig_hermitian(b)


def _cache_eig(m: HermitianMatrix, vals: np.ndarray, qs: np.ndarray) -> EigenPair:
    """Wrap ``eigh_stack``'s values and vectors of ``m`` as read-only arrays
    in an ``EigenPair`` and cache it on ``m``."""
    vals.setflags(write=False)
    qs.setflags(write=False)
    vecs = UnitaryMatrix.__new__(UnitaryMatrix)
    vecs.mat = qs
    pair = EigenPair(vals, vecs)
    m._eig = pair
    return pair


def require_positive(vals: np.ndarray, what: str) -> None:
    """Raise ``DomainError`` unless every set of descending eigenvalues in
    ``vals`` (shape ``(..., n)``) has a positive smallest member.

    A product of positive definite factors wrapped unchecked (``_wrap``)
    can come out numerically indefinite; its log, root or fractional power
    would then be NaN.
    """
    low = vals[..., -1]
    if not (low > 0.0).all():
        worst = np.unravel_index(np.argmin(low), low.shape)
        raise DomainError(
            f"{what}: computed eigenvalues in "
            f"[{vals[worst][-1]:.3e}, {vals[worst][0]:.3e}]"
        )


def _positive_eig(m: SpdMatrix) -> EigenPair:
    """The eigendecomposition of ``m``, after ``require_positive``."""
    pair = eig_hermitian(m)
    require_positive(pair.values, "matrix is numerically not positive definite")
    return pair


def mat_exp(m: HermitianMatrix, scale: float = 1.0) -> SpdMatrix:
    """exp(scale * M) for Hermitian M; the result is positive definite."""
    pair = eig_hermitian(m)
    return SpdMatrix._from_eig(pair.vectors.mat, np.exp(scale * pair.values))


def mat_log(m: SpdMatrix) -> HermitianMatrix:
    """Principal logarithm of a positive definite matrix; ``DomainError``
    when its smallest computed eigenvalue is not positive."""
    if not isinstance(m, SpdMatrix):
        raise DomainError("mat_log requires a positive definite matrix")
    return HermitianMatrix._wrap(_positive_eig(m).apply(np.log))


def mat_pow(m: HermitianMatrix, t: float) -> HermitianMatrix:
    """M^t through the eigendecomposition.

    Non-integer exponents require a positive definite input, and raise
    ``DomainError`` when its smallest computed eigenvalue is not positive
    (the power would be NaN); integer exponents are fine on any Hermitian
    matrix.
    """
    integer = float(t).is_integer()
    if isinstance(m, SpdMatrix):
        pair = eig_hermitian(m) if integer else _positive_eig(m)
        return SpdMatrix._from_eig(pair.vectors.mat, pair.values ** t)
    if not integer:
        raise DomainError(
            "fractional matrix powers require a positive definite matrix"
        )
    pair = eig_hermitian(m)
    return HermitianMatrix._wrap(pair.apply(lambda v: v ** t))


def mat_sqrt(m: SpdMatrix) -> SpdMatrix:
    """Principal square root of a positive definite matrix."""
    if not isinstance(m, SpdMatrix):
        raise DomainError("mat_sqrt requires a positive definite matrix")
    return mat_pow(m, 0.5)


def svd(arr: np.ndarray) -> tuple:
    """LAPACK's SVD (W, sigma, V*) of an array, sigma descending;
    ``NoConvergence`` if it fails."""
    try:
        return np.linalg.svd(arr)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"singular value decomposition failed: {exc}") from exc


def polar(m: ComplexMatrix, side: str = "left") -> tuple[UnitaryMatrix, SpdMatrix]:
    """Polar decomposition of an invertible matrix, through the SVD.

    With M = W S V*, the unitary factor is U = W V* on both sides.
    side='left' returns (U, P) with M = P U and P = W S W* = (M M*)^{1/2};
    side='right' returns (U, P) with M = U P and P = V S V* = (M* M)^{1/2}.
    """
    if side not in ("left", "right"):
        raise DomainError(f"polar side must be 'left' or 'right', got {side!r}")
    w, svals, vh = svd(m.mat)
    if not svals[-1] > SPD_TOL * svals[0]:
        raise SingularInput("polar decomposition requires an invertible input")
    q = w if side == "left" else vh.conj().T
    return UnitaryMatrix(w @ vh), SpdMatrix._from_eig(q, svals)


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
    scale = max(1.0, float(np.abs(a).max()))
    if isinstance(m, HermitianMatrix) or float(
        np.abs(a - a.conj().T).max()
    ) <= HERMITIAN_TOL * scale:
        herm = m if isinstance(m, HermitianMatrix) else HermitianMatrix._wrap(a)
        vals = eig_hermitian(herm).values.astype(complex)
        return _sort_by_modulus(vals)
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue computation failed: {exc}") from exc
    return _sort_by_modulus(vals)
