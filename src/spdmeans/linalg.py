"""Deterministic dense complex linear algebra.

Validated matrix types (Hermitian, positive definite, unitary) plus the
eigendecomposition, matrix-function, polar and spectrum kernels every other
module builds on.  The decompositions are LAPACK's (``eigh``, ``eigvals``,
``svd``) with a canonical eigenvector phase and a stable descending sort, so
identical inputs give identical outputs run to run.  Every spectral
function Q diag(f(lambda)) Q* of the package is assembled here, by
``_assemble``, from an ``EigenPair`` or an ``eigh_stack`` result.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError, NoConvergence, SingularInput

HERMITIAN_TOL = 1e-10
SPD_TOL = 1e-12
UNITARY_TOL = 1e-10


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
    round differently; with both operands contiguous, every layout takes the
    same loop.
    """
    shape = np.broadcast(base, expo).shape
    full_base, full_expo = np.empty(shape), np.empty(shape)
    full_base[...] = base
    full_expo[...] = expo
    return np.power(full_base, full_expo, out=full_base)


def _assemble(q: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Q diag(vals) Q*, symmetrized, for every matrix of a stack: the one
    assembly of a spectral function from an eigendecomposition."""
    return _herm((q * vals[..., None, :]) @ _ct(q))


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
        sym = _herm(arr)
        sym.setflags(write=False)
        self.mat = sym
        self._eig = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "HermitianMatrix":
        """Internal: wrap ``arr`` as it is, unchecked, and make it read-only.
        Precondition: ``arr == arr.conj().T`` exactly, as ``_assemble``
        output is; symmetrize a product P = U X U* to (P + P*)/2 first."""
        obj = object.__new__(cls)
        arr.setflags(write=False)
        obj.mat = arr
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
        return cls._from_eigs(q[None], vals[None])[0]

    @classmethod
    def _from_eigs(cls, q: np.ndarray, vals: np.ndarray) -> list:
        """Internal: ``_from_eig`` for each matrix of a stack, q (m, n, n)
        and vals (m, n), with one assembly of the whole stack."""
        out = []
        for mat, qi, vi in zip(_assemble(q, vals), q, vals):
            obj = cls._wrap(mat)
            order = np.argsort(-vi, kind="stable")
            _cache_eig(obj, vi[order], np.ascontiguousarray(qi[:, order]))
            out.append(obj)
        return out


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


class EigenPair(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, as two read-only arrays
    (built only by ``_cache_eig``).

    ``values`` are real and sorted descending (stable ties); the columns of
    ``vectors`` are the matching orthonormal eigenvectors.
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
    """Make the eigenvalues and eigenvectors of ``m`` read-only and cache
    them on ``m`` as its ``EigenPair``."""
    vals.setflags(write=False)
    qs.setflags(write=False)
    m._eig = EigenPair(vals, qs)
    return m._eig


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


def mat_exp(m: HermitianMatrix, scale: float = 1.0) -> SpdMatrix:
    """exp(scale * M) for Hermitian M; the result is positive definite.
    ``DomainError`` when some e^{scale lambda} overflows or underflows to 0."""
    pair = eig_hermitian(m)
    with np.errstate(over="ignore"):
        vals = np.exp(scale * pair.values)
    if not (np.isfinite(vals) & (vals > 0.0)).all():
        raise DomainError(
            f"exp(scale * M) leaves the float range: scale = {scale:g}, "
            f"eigenvalues of M in [{pair.values[-1]:.3e}, {pair.values[0]:.3e}]"
        )
    return SpdMatrix._from_eig(pair.vectors, vals)


def mat_log(m: SpdMatrix) -> HermitianMatrix:
    """Principal logarithm of a positive definite matrix; ``DomainError``
    when its smallest computed eigenvalue is not positive."""
    if not isinstance(m, SpdMatrix):
        raise DomainError("mat_log requires a positive definite matrix")
    pair = eig_hermitian(m)
    require_positive(pair.values, "matrix is numerically not positive definite")
    return HermitianMatrix._wrap(_assemble(pair.vectors, np.log(pair.values)))


def mat_pow(m: HermitianMatrix, t: float) -> HermitianMatrix:
    """M^t through the eigendecomposition.

    Non-integer exponents require a positive definite input, and raise
    ``DomainError`` when its smallest computed eigenvalue is not positive
    (the power would be NaN); integer exponents are fine on any Hermitian
    matrix.
    """
    integer = float(t).is_integer()
    if not (integer or isinstance(m, SpdMatrix)):
        raise DomainError(
            "fractional matrix powers require a positive definite matrix"
        )
    pair = eig_hermitian(m)
    if not integer:
        require_positive(pair.values, "matrix is numerically not positive definite")
    if isinstance(m, SpdMatrix):
        return SpdMatrix._from_eig(pair.vectors, pair.values ** t)
    return HermitianMatrix._wrap(_assemble(pair.vectors, pair.values ** t))


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
        herm = m if isinstance(m, HermitianMatrix) else HermitianMatrix._wrap(_herm(a))
        vals = eig_hermitian(herm).values.astype(complex)
        return _sort_by_modulus(vals)
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue computation failed: {exc}") from exc
    return _sort_by_modulus(vals)
