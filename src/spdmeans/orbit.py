"""Constructive orbit-sum solver.

Given Hermitian X and Y, find unitaries U, V with

    U X U* + V Y V* = Z,

where Z is the principal logarithm of e^{X/2} e^Y e^{X/2}, of
e^{2X} # e^{2Y}, or of e^{2X} @ e^{2Y}.  ``build_target`` writes each of
these as a Gram product H H* of a square-root factor H and takes Z from the
SVD of H, so Z's eigenvalues come from singular values; its range is in
its docstring.  A zero-residual pair always exists, and the solver reaches
it by monotone descent on the product of two unitary groups.  It carries
the pair as one array W = [U; V] of shape (2, n, n), as ``objective``,
``riemannian_grad`` and ``verify_membership`` do: ``_conjugates`` gives
[A; B] = W [X; Y] W* and R = A + B - Z.  Each iteration takes one damped
Gauss-Newton step: the minimum-norm Levenberg-Marquardt direction S of the
linearized residual, from the dual normal equations with a tiny ridge (no
basis of the Lie algebra of K is built), retracted to C W by the Cayley
transform C of S and halved, at most nine times, until f falls by a
relative 1e-4.  A start whose step finds no decrease stalls, and a seeded
random restart takes over; each restart and each start that stops by stall
or budget is logged at DEBUG level.

The realization (``realizations.REALIZATIONS``) fixes the group K of the
factors and the solver's arithmetic: U(n) in complex128 for 'glc', or SO(n)
in float64 for 'slr'.  The Cayley transform of a skew-Hermitian matrix is
unitary, and that of a real skew one is orthogonal with det +1, so every
iterate lies in K without a projection.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import MaxIterReached, ParamOutOfRange
from .linalg import (
    HermitianMatrix,
    UnitaryMatrix,
    _ct,
    _herm,
    eig_hermitian,
    eigh_stack,
    require_exp_range,
    require_same_dimension,
    require_spd_range,
    unitarity_error,
)
from .means import _gram_root, _MeanPair
from .realizations import REALIZATIONS

TARGET_KINDS = ("exp_product", "geometric", "spectral")
# The stopping tolerance on max |U X U* + V Y V* - Z| and the iteration and
# restart budgets of ``solve``, read also by the CLI and the suites.
ORBIT_TOL = 1e-8
MAX_ITER = 5000
MAX_RESTARTS = 4
# Spectrum preservation of the conjugations, relative to 1 + max |eigenvalue|.
MEMBERSHIP_TOL = 1e-10
# (factor, floor): verify_membership's bound max(factor * residual, floor).
MEMBERSHIP_RESIDUAL = (10.0, 1e-7)

logger = logging.getLogger(__name__)

# The Gauss-Newton search's damping factors 1, 1/2, ..., 2^-9 and the
# relative decrease of f that accepts a trial.
_DAMPING = tuple(0.5 ** j for j in range(10))
_DECREASE = 1e-4
# Levenberg-Marquardt ridge of the Gauss-Newton normal equations, relative
# to the mean diagonal of J J^T.
_RIDGE = 1e-12


def _gram_log(h: np.ndarray, left: np.ndarray) -> HermitianMatrix:
    """log(G H H* G*) = G P diag(2 log sigma) P* G* from the SVD P diag(sigma)
    W* of the factor H, for unitary G = left.

    DomainError unless sigma^2 passes ``require_spd_range``, the SpdMatrix
    range applied to H H*; an inf Gram eigenvalue fails it.
    """
    sig, q = _gram_root(left, h)
    with np.errstate(over="ignore"):
        gram = sig ** 2
    require_spd_range(gram, "target is not positive definite to working precision: Gram "
                      "eigenvalues in")
    return HermitianMatrix._from_eig(q, 2.0 * np.log(sig))


def build_target(x: HermitianMatrix, y: HermitianMatrix, kind: str) -> HermitianMatrix:
    """Z such that U X U* + V Y V* = Z is solvable for the given kind.

    kind='exp_product':  Z = log(e^{X/2} e^Y e^{X/2})
    kind='geometric':    Z = log(e^{2X} # e^{2Y})
    kind='spectral':     Z = log(e^{2X} @ e^{2Y})

    Each product or mean is a Gram product H H*, and Z = P diag(2 log sigma)
    P* comes from the SVD of H.  The eigenpairs that X and Y hold, X =
    Q_x D_x Q_x* and Y = Q_y D_y Q_y*, give every factor in X's eigenbasis,
    as diagonal scalings of Q_x* Q_y, so no product of two exponentials is formed:
    H = Q_x (e^{D_x/2} Q_x* Q_y e^{D_y/2}) Q_y* for exp_product, and for
    the means the t = 1/2 factors of ``means._MeanPair`` for the roots
    (e^{D_x}, Q_x) of e^{2X} and (e^{D_y}, Q_y) of e^{2Y}.

    Range: every exponential, factor entry and singular value above lies in
    [e^{-b}, e^b] in exact arithmetic, b = max |eig X| + max |eig Y|, so
    DomainError ('float range') before any exp unless b < log(float max /
    2) = 709.09; then DomainError ('not positive definite') unless the squared
    singular values of the last factor pass ``require_spd_range``, the
    SpdMatrix range of e^Z: Z's eigenvalue spread below log(1 / SPD_TOL) =
    27.6.  Each SVD that fails raises NoConvergence.
    """
    require_same_dimension(x, y)
    if kind not in TARGET_KINDS:
        raise ParamOutOfRange(f"unknown target kind {kind!r}; use one of {TARGET_KINDS}")
    eig_x, eig_y = eig_hermitian(x), eig_hermitian(y)
    lam_x, q_x = eig_x.values, eig_x.vectors
    lam_y, q_y = eig_y.values, eig_y.vectors
    what = "the target's factors leave the float range: max |eig X| + max |eig Y|"
    require_exp_range(np.abs(lam_x).max() + np.abs(lam_y).max(), what)
    if kind == "exp_product":
        m = q_x.conj().T @ q_y
        return _gram_log(np.exp(0.5 * lam_x)[:, None] * m * np.exp(0.5 * lam_y), q_x)
    pair = _MeanPair((np.exp(lam_x), q_x), (np.exp(lam_y), q_y))
    left, inner = (pair.sharp_factors if kind == "geometric" else pair.natural_factors)([0.5])
    return _gram_log(inner[0], left[0])


@dataclass
class OrbitProblem:
    """Inputs X, Y plus the derived target Z for one orbit-sum instance."""

    x: HermitianMatrix
    y: HermitianMatrix
    kind: str
    z: HermitianMatrix

    @classmethod
    def create(cls, x: HermitianMatrix, y: HermitianMatrix, kind: str) -> "OrbitProblem":
        return cls(x=x, y=y, kind=kind, z=build_target(x, y, kind))

    @property
    def n(self) -> int:
        return self.x.n


@dataclass
class OrbitSolution:
    """Feasible pair (U, V) with convergence diagnostics."""

    u: UnitaryMatrix
    v: UnitaryMatrix
    residual: float
    iterations: int
    objective_trace: list
    restarts: int = 0
    # Why the solve ended: 'converged', 'budget' (max_iter spent) or 'stall'
    # (the Gauss-Newton search of the last start found no decrease), and the
    # accepted steps, summed over all starts.
    stop_reason: str = "converged"
    gauss_newton_steps: int = 0

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _stacked(u: UnitaryMatrix, v: UnitaryMatrix, prob: OrbitProblem) -> tuple:
    """[U; V], [X; Y] and Z; DimensionMismatch unless U and V have the problem's n."""
    for factor in (u, v):
        require_same_dimension(factor, prob.x)
    return np.array([u.mat, v.mat]), np.array([prob.x.mat, prob.y.mat]), prob.z.mat


def _conjugates(w: np.ndarray, xy: np.ndarray, z: np.ndarray) -> tuple:
    """[A; B] = W XY W* = [U X U*; V Y V*] for W = [U; V], and R = A + B - Z."""
    ab = w @ xy @ _ct(w)
    return ab, ab[0] + ab[1] - z


def _fit(r: np.ndarray) -> tuple:
    """(f, max |R|) of a residual R, f = 1/2 sum |R|^2 (entrywise sum form)."""
    size = np.abs(r)
    return 0.5 * float(np.sum(size ** 2)), float(size.max())


def objective(u: UnitaryMatrix, v: UnitaryMatrix, prob: OrbitProblem) -> float:
    """f(U, V) = 1/2 ||U X U* + V Y V* - Z||_F^2 (entrywise sum form)."""
    return _fit(_conjugates(*_stacked(u, v, prob))[1])[0]


def riemannian_grad(u: UnitaryMatrix, v: UnitaryMatrix, prob: OrbitProblem) -> np.ndarray:
    """Riemannian gradient [K_U; K_V], shape (2, n, n), of the objective at (U, V).

    With A = U X U*, B = V Y V*, R = A + B - Z the gradients are the
    skew-Hermitian commutators K_U = [R, A] and K_V = [R, B]; the
    directional derivative along (e^{eps K} U, V) at eps = 0 equals
    <K, K_U>_F, so descent moves U along -K_U.
    """
    ab, r = _conjugates(*_stacked(u, v, prob))
    return r @ ab - ab @ r


def _cayley(k: np.ndarray, scale: float) -> np.ndarray:
    """(I + (s/2) K)^{-1} (I - (s/2) K) = exp(-s K) + O(s^3) for s = scale
    and skew-Hermitian K, or each matrix of a stack (..., n, n), in K's
    dtype: unitary, and orthogonal with det +1 for real K.  I + (s/2) K has
    its eigenvalues on 1 + iR, so the solve never meets a singular matrix."""
    half = (0.5 * scale) * k
    eye = np.eye(k.shape[-1])
    return np.linalg.solve(eye + half, eye - half)


def _gauss_newton_operator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The n^2 x n^2 matrix of Y -> [[Y, A], A] + [[Y, B], B] on row-major
    vec(Y): I (x) C^T + C (x) I - 2 (A (x) A^T + B (x) B^T), C = A^2 + B^2,
    whose terms P (x) Q, entries P[i, k] Q[j, l], are one rank-4 product."""
    n = a.shape[0]
    eye = np.eye(n)
    c = a @ a + b @ b
    left = np.array([eye, c, a, b]).reshape(4, n * n)
    right = np.array([c.T, eye, -2.0 * a.T, -2.0 * b.T]).reshape(4, n * n)
    op = (left.T @ right).reshape(n, n, n, n).transpose(0, 2, 1, 3)
    return op.reshape(n * n, n * n)


def _gauss_newton_direction(ab, r):
    """Skew [S_u; S_v], shape (2, n, n), with [S_u, A] + [S_v, B] ~ -R, ab = [A; B]:
    the minimum-norm Levenberg-Marquardt step J^T (J J^T + mu I)^{-1} (-R).

    A, B and R lie in p (g = k + p), so the adjoint of J: (S_u, S_v) ->
    [S_u, A] + [S_v, B] is H -> ([H, A], [H, B]), as [p, p] lies in k, and
    no basis of k is needed: solve ad_A^2 Y + ad_B^2 Y + mu Y = -R for one
    n x n matrix Y, mu = _RIDGE * mean diag of the operator, and take
    S_u = [Y, A], S_v = [Y, B].  Zero if the operator is zero (A, B scalar).
    """
    n = r.shape[0]
    op = _gauss_newton_operator(*ab)
    diag = op.reshape(-1)[:: n * n + 1]  # a view: op is contiguous
    mu = _RIDGE * float(diag.real.mean())
    if not mu > 0.0:
        return np.zeros_like(ab)
    diag += mu
    # I is in the operator's null space and [I, A] = 0: R's trace part (the
    # unreachable trace gap) would only inflate Y by 1/mu and cost digits.
    rhs = -r.ravel()
    rhs[:: n + 1] += np.trace(r) / n
    y = np.linalg.solve(op, rhs).reshape(n, n)
    # Y lies in p: drop its rounding off it (i I, inflated by 1/mu, among
    # it).  Then [Y, A] = Y A - (Y A)*, exactly skew in this form.
    yab = _herm(y) @ ab
    return yab - _ct(yab)


def solve(
    prob: OrbitProblem,
    tol: float = ORBIT_TOL,
    max_iter: int = MAX_ITER,
    seed: int = 0,
    realization: str = "glc",
    on_iterate=None,
) -> OrbitSolution:
    """Drive the residual ||U X U* + V Y V* - Z||_max below tol.

    Every iteration takes one damped Gauss-Newton search: the step along
    the Gauss-Newton direction, retracted by the Cayley transform, is damped
    by 1, 1/2, ..., 2^-9 until f falls by a relative 1e-4.  So the
    objective trace is non-increasing by construction.  The first start is
    U = V = I at every n.  A start whose search finds no decrease stalls,
    and the next start begins from seeded random factors, up to
    MAX_RESTARTS times.  The first start that reaches tol ends the solve and
    is returned.  If every start stalls above tol or the iteration budget
    runs out, MaxIterReached carries the start with the least f.  The
    solution's stop_reason ('converged', or the last start's 'stall' or
    'budget'), restarts and gauss_newton_steps say why and how it ended.
    A real realization refuses X, Y or Z with an imaginary part (ParamOutOfRange).
    """
    if realization not in REALIZATIONS:
        raise ParamOutOfRange(f"unknown realization {realization!r}")
    if not tol > 0.0:
        raise ParamOutOfRange("tol must be positive")
    if max_iter < 0:
        raise ParamOutOfRange("max_iter must be non-negative")
    n = prob.n
    space = REALIZATIONS[realization]
    # X, Y and Z in the realization's arithmetic: float64 for a real one.
    xyz = np.array([m.mat for m in (prob.x, prob.y, prob.z)])
    if np.dtype(space.dtype).kind == "f":
        if xyz.imag.any():
            raise ParamOutOfRange(f"realization {realization!r} solves in real arithmetic: "
                                  "X, Y and Z must have zero imaginary parts")
        xyz = xyz.real.astype(space.dtype)

    def at(w):
        """The iterate (W, [A; B], R, f, max |R|) at the factor pair W = [U; V]."""
        ab, r = _conjugates(w, xyz[:2], xyz[2])
        return (w, ab, r, *_fit(r))

    best = None
    iterations = gauss_newton_steps = 0
    for restart in range(MAX_RESTARTS + 1):
        if restart == 0:
            w = np.array([np.eye(n, dtype=space.dtype)] * 2)
        else:
            base = seed * 8191 + restart * 2
            w = np.array([space.random_factor(n, base), space.random_factor(n, base + 1)])
        w, ab, r, f, resid = at(w)
        if restart:
            logger.debug("restart %d from f %.3e, residual %.3e", restart, f, resid)
        trace = [f]
        if on_iterate is not None:
            on_iterate(*w, f)
        stop_reason = "budget"
        while iterations < max_iter and resid > tol:
            iterations += 1
            # Retract to _cayley(S, -damp) W for the Gauss-Newton direction S,
            # and take the first damping in _DAMPING with f' <= (1 - _DECREASE) f.
            s = _gauss_newton_direction(ab, r)
            found = None
            if float(np.abs(s).max()) > 0.0:
                for damp in _DAMPING:
                    trial = at(_cayley(s, -damp) @ w)
                    if trial[3] <= f * (1.0 - _DECREASE):
                        found = trial
                        break
            if found is not None:
                gauss_newton_steps += 1
                w, ab, r, f, resid = found
            trace.append(f)
            if on_iterate is not None:
                on_iterate(*w, f)
            if found is None:
                stop_reason = "stall"
                break
        if resid <= tol:
            best, stop_reason = (w, f, resid, trace), "converged"
            break
        if best is None or f < best[1]:
            best = (w, f, resid, trace)
        logger.debug("start %d stopped (%s) at f %.3e, residual %.3e after %d "
                     "iterations", restart, stop_reason, f, resid, iterations)
        if iterations >= max_iter:
            break

    w, _, resid, trace = best
    sol = OrbitSolution(UnitaryMatrix(w[0]), UnitaryMatrix(w[1]), residual=resid,
                        iterations=iterations, objective_trace=trace, restarts=restart,
                        stop_reason=stop_reason, gauss_newton_steps=gauss_newton_steps)
    if sol.converged:
        return sol
    raise MaxIterReached(f"orbit solve stopped ({stop_reason}) at residual {resid:.3e} after "
                         f"{iterations} iterations and {restart} restarts", sol)


def verify_membership(sol: OrbitSolution, prob: OrbitProblem) -> bool:
    """Recompute the residual and check both conjugations preserve spectra.

    True iff U and V are unitary, the orbit-sum equation holds to
    MEMBERSHIP_RESIDUAL's factor times the reported residual or to its
    floor, and lambda(U X U*) = lambda(X), lambda(V Y V*) = lambda(Y)
    within MEMBERSHIP_TOL.  DimensionMismatch for a solution of another n.
    """
    w, xy, z = _stacked(sol.u, sol.v, prob)
    ab, r = _conjugates(w, xy, z)
    factor, floor = MEMBERSHIP_RESIDUAL
    if unitarity_error(w) is not None or _fit(r)[1] > max(factor * sol.residual, floor):
        return False
    lam = np.array([eig_hermitian(m).values for m in (prob.x, prob.y)])
    drift = np.abs(eigh_stack(_herm(ab))[0] - lam).max(axis=-1)
    return bool(np.all(drift <= MEMBERSHIP_TOL * (1.0 + np.abs(lam).max(axis=-1))))
