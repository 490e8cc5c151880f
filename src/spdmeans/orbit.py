"""Constructive orbit-sum solver.

Given Hermitian X and Y, find unitaries U, V with

    U X U* + V Y V* = Z,

where Z is the principal logarithm of e^{X/2} e^Y e^{X/2}, of
e^{2X} # e^{2Y}, or of e^{2X} @ e^{2Y}.  A zero-residual pair always exists,
and the solver reaches it by monotone descent on the product of two unitary
groups.  Each iteration takes one damped Gauss-Newton step: the
minimum-norm Levenberg-Marquardt direction of the linearized residual, from
the dual normal equations with a tiny ridge (no basis of the Lie algebra of
K is built), retracted by the exponential map and backtracked until f
falls.  When that step finds no decrease, an Armijo-backtracked
steepest-descent step runs instead, and seeded random restarts take over
when a start stalls above tolerance; each restart and each start that
stops by stall or budget is logged at DEBUG level.

The realization (``realizations.REALIZATIONS``) fixes the group K of the
factors: U(n) for 'glc', or SO(n) for 'slr', where Gauss-Newton directions
are real skew-symmetric and every iterate lies in SO(n).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MaxIterReached, ParamOutOfRange
from .linalg import (
    UNITARY_TOL,
    HermitianMatrix,
    SpdMatrix,
    UnitaryMatrix,
    eig_hermitian,
    eigh_stack,
    mat_exp,
    mat_log,
)
from .means import _MeanPair
from .realizations import REALIZATIONS

TARGET_KINDS = ("exp_product", "geometric", "spectral")
# The stopping tolerance on max |U X U* + V Y V* - Z| and the iteration and
# restart budgets of ``solve``, read also by the CLI and the suites.
ORBIT_TOL = 1e-8
MAX_ITER = 5000
MAX_RESTARTS = 4
# Spectrum preservation of the conjugations, relative to 1 + max |eigenvalue|.
MEMBERSHIP_TOL = 1e-10

logger = logging.getLogger(__name__)

_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_ETA_INIT = 1.0
_STALL_RTOL = 1e-14
_STALL_WINDOW = 50
# Levenberg-Marquardt ridge of the Gauss-Newton normal equations, relative
# to the mean diagonal of J J^T.
_RIDGE = 1e-12


def build_target(x: HermitianMatrix, y: HermitianMatrix, kind: str) -> HermitianMatrix:
    """Z such that U X U* + V Y V* = Z is solvable for the given kind.

    kind='exp_product':  Z = log(e^{X/2} e^Y e^{X/2})
    kind='geometric':    Z = log(e^{2X} # e^{2Y})
    kind='spectral':     Z = log(e^{2X} @ e^{2Y})
    """
    if x.n != y.n:
        raise DimensionMismatch(f"dimension mismatch: {x.n} vs {y.n}")
    if kind == "exp_product":
        half = mat_exp(x, 0.5)
        inner = SpdMatrix._wrap(half.mat @ mat_exp(y).mat @ half.mat)
        return mat_log(inner)
    pair = _MeanPair(mat_exp(x, 2.0), mat_exp(y, 2.0))
    if kind == "geometric":
        return mat_log(pair.sharp(0.5))
    if kind == "spectral":
        return mat_log(pair.natural(0.5))
    raise ParamOutOfRange(f"unknown target kind {kind!r}; use one of {TARGET_KINDS}")


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
    converged: bool = True
    # Why the solve ended: 'converged', 'budget' (max_iter spent) or 'stall'
    # (the last start accepted no step, or made no relative progress for
    # _STALL_WINDOW iterations).  The counts are accepted steps of each type,
    # summed over all starts.
    stop_reason: str = "converged"
    gauss_newton_steps: int = 0
    descent_steps: int = 0


def objective(u: UnitaryMatrix, v: UnitaryMatrix, prob: OrbitProblem) -> float:
    """f(U, V) = 1/2 ||U X U* + V Y V* - Z||_F^2 (entrywise sum form)."""
    r = _residual_terms(u.mat, v.mat, prob)[2]
    return 0.5 * float(np.sum(np.abs(r) ** 2))


def _residual_terms(u: np.ndarray, v: np.ndarray, prob: OrbitProblem) -> tuple:
    """A = U X U*, B = V Y V* and the residual R = A + B - Z."""
    a = u @ prob.x.mat @ u.conj().T
    b = v @ prob.y.mat @ v.conj().T
    return a, b, a + b - prob.z.mat


def riemannian_grad(
    u: UnitaryMatrix, v: UnitaryMatrix, prob: OrbitProblem
) -> tuple[np.ndarray, np.ndarray]:
    """Riemannian gradient (K_U, K_V) of the objective at (U, V).

    With A = U X U*, B = V Y V*, R = A + B - Z the gradients are the
    skew-Hermitian commutators K_U = [R, A] and K_V = [R, B]; the
    directional derivative along (e^{eps K} U, V) at eps = 0 equals
    <K, K_U>_F, so descent retracts along e^{-eta K_U} U.
    """
    a, b, r = _residual_terms(u.mat, v.mat, prob)
    k_u = r @ a - a @ r
    k_v = r @ b - b @ r
    return k_u, k_v


def _exp_skew(k: np.ndarray):
    """Eigendecomposition of skew-Hermitian K, or of each matrix of a stack
    (..., n, n); returns scale -> exp(-scale K), of the same shape."""
    lam, q = eigh_stack(-1j * k)

    def step(scale: float) -> np.ndarray:
        return (q * np.exp(-1j * scale * lam)[..., None, :]) @ q.conj().swapaxes(-1, -2)

    return step


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


def _gauss_newton_direction(a, b, r):
    """Skew [S_u; S_v], shape (2, n, n), with [S_u, A] + [S_v, B] ~ -R: the
    minimum-norm Levenberg-Marquardt step J^T (J J^T + mu I)^{-1} (-R).

    A, B and R lie in p (g = k + p), so the adjoint of J: (S_u, S_v) ->
    [S_u, A] + [S_v, B] is H -> ([H, A], [H, B]), as [p, p] lies in k, and
    no basis of k is needed: solve ad_A^2 Y + ad_B^2 Y + mu Y = -R for one
    n x n matrix Y, mu = _RIDGE * mean diag of the operator, and take
    S_u = [Y, A], S_v = [Y, B].  Zero if the operator is zero (A, B scalar).
    """
    n = a.shape[0]
    op = _gauss_newton_operator(a, b)
    diag = op.reshape(-1)[:: n * n + 1]  # a view: op is contiguous
    mu = _RIDGE * float(diag.real.mean())
    if not mu > 0.0:
        return np.zeros((2, n, n), dtype=complex)
    diag += mu
    # I is in the operator's null space and [I, A] = 0: R's trace part (the
    # unreachable trace gap) would only inflate Y by 1/mu and cost digits.
    rhs = -r.ravel()
    rhs[:: n + 1] += np.trace(r) / n
    y = np.linalg.solve(op, rhs).reshape(n, n)
    # Y lies in p: drop its rounding off it (i I, inflated by 1/mu, among
    # it).  Then [Y, A] = Y A - (Y A)*, exactly skew in this form.
    y = (y + y.conj().T) / 2.0
    yab = y @ np.array([a, b])
    return yab - yab.conj().swapaxes(1, 2)


def solve(
    prob: OrbitProblem,
    tol: float = ORBIT_TOL,
    max_iter: int = MAX_ITER,
    seed: int = 0,
    max_restarts: int = MAX_RESTARTS,
    realization: str = "glc",
    on_iterate=None,
) -> OrbitSolution:
    """Drive the residual ||U X U* + V Y V* - Z||_max below tol.

    Every iteration takes one monotone step: damped Gauss-Newton, retracted
    along the exponential map and halved until f falls by a relative 1e-4,
    or, when that finds no decrease, Armijo steepest descent.  So the
    objective trace over accepted iterates is non-increasing by
    construction.  The first start is U = V = I at every n.  A start that
    accepts no step, or makes no relative progress for _STALL_WINDOW
    iterations, stalls, and the next start begins from seeded random
    factors, up to max_restarts times.  Raises MaxIterReached (carrying the
    best iterate) only if every start stalls above tolerance or the
    iteration budget runs out.  The solution's stop_reason ('converged',
    'stall' or 'budget') and step counts say why and how the solve ended.
    """
    if realization not in REALIZATIONS:
        raise ParamOutOfRange(f"unknown realization {realization!r}")
    if not tol > 0.0:
        raise ParamOutOfRange("tol must be positive")
    if max_iter < 0 or max_restarts < 0:
        raise ParamOutOfRange("max_iter and max_restarts must be non-negative")
    n = prob.n

    def at(u, v):
        """The iterate (U, V, A, B, R, f, max |R|) at the factors (U, V)."""
        a, b, r = _residual_terms(u, v, prob)
        return u, v, a, b, r, 0.5 * float(np.sum(np.abs(r) ** 2)), float(np.abs(r).max())

    space = REALIZATIONS[realization]
    best = None
    iterations = 0
    restarts_used = 0
    trace: list = []
    steps = {"gauss_newton_steps": 0, "descent_steps": 0}

    def solution(u, v, resid, trace, stop_reason):
        return OrbitSolution(
            u=UnitaryMatrix(u),
            v=UnitaryMatrix(v),
            residual=resid,
            iterations=iterations,
            objective_trace=trace,
            restarts=restarts_used,
            converged=stop_reason == "converged",
            stop_reason=stop_reason,
            **steps,
        )

    def line_search(k, u, v, scale, floor, accept):
        """Trial steps s = scale, scale * _BACKTRACK, ... while |s| > floor: the
        first (s, iterate) with accept(s, f'), where the iterate's (U', V') is
        (e^{-s K_u} U, e^{-s K_v} V) mapped into K, for k = [K_u; K_v]; None
        if no trial passes."""
        step = _exp_skew(k)
        while abs(scale) > floor:
            e = step(scale)
            trial = at(space.to_group(e[0] @ u), space.to_group(e[1] @ v))
            if accept(scale, trial[5]):
                return scale, trial
            scale *= _BACKTRACK
        return None

    for restart in range(max_restarts + 1):
        if restart == 0:
            u, v = np.eye(n, dtype=complex), np.eye(n, dtype=complex)
        else:
            restarts_used = restart
            base = seed * 8191 + restart * 2
            u, v = space.random_factor(n, base), space.random_factor(n, base + 1)
        u, v, a, b, r, f, resid = at(u, v)
        if restart:
            logger.debug("restart %d from f %.3e, residual %.3e", restart, f, resid)
        trace = [f]
        if on_iterate is not None:
            on_iterate(u, v, f)
        eta = _ETA_INIT
        stall = 0
        while iterations < max_iter and resid > tol:
            iterations += 1
            f_prev = f
            # Damped Gauss-Newton: quadratic local convergence where plain
            # descent crawls (near-degenerate instances).
            s = _gauss_newton_direction(a, b, r)
            found = None
            if float(np.abs(s).max()) > 0.0:
                # Retract along +damp S for damp = 1, 1/2, ..., 2^-9 (_BACKTRACK).
                found = line_search(
                    s, u, v, -1.0, 1e-3,
                    lambda _, f_new: f_new <= f * (1.0 - 1e-4),
                )
                if found is not None:
                    steps["gauss_newton_steps"] += 1

            if found is None:
                # Armijo-backtracked steepest descent with exponential
                # retraction; the gradient eigensystems are reused across
                # backtracking trials.
                k = np.stack([r @ a - a @ r, r @ b - b @ r])
                gnorm2 = float(np.sum(np.abs(k) ** 2))
                if gnorm2 > 0.0:
                    found = line_search(
                        k, u, v, min(eta * 2.0, 1e3), 1e-18,
                        lambda eta_try, f_new: f_new <= f - _ARMIJO_C * eta_try * gnorm2,
                    )
                    if found is not None:
                        eta = found[0]
                        steps["descent_steps"] += 1

            if found is not None:
                u, v, a, b, r, f, resid = found[1]
            trace.append(f)
            if on_iterate is not None:
                on_iterate(u, v, f)
            rel_drop = (f_prev - f) / max(f_prev, 1e-300)
            stall = stall + 1 if rel_drop < _STALL_RTOL else 0
            if found is None or stall >= _STALL_WINDOW:
                stop_reason = "stall"
                break
        else:
            stop_reason = "converged" if resid <= tol else "budget"

        if best is None or f < best[2]:
            best = (u, v, f, resid, list(trace))
        if resid <= tol:
            return solution(u, v, resid, trace, "converged")
        logger.debug("start %d stopped (%s) at f %.3e, residual %.3e after %d "
                     "iterations", restart, stop_reason, f, resid, iterations)
        if iterations >= max_iter:
            break

    u, v, f, resid, trace = best
    raise MaxIterReached(
        f"orbit solve stopped ({stop_reason}) at residual {resid:.3e} after "
        f"{iterations} iterations and {restarts_used} restarts",
        solution=solution(u, v, resid, trace, stop_reason),
    )


def verify_membership(sol: OrbitSolution, prob: OrbitProblem) -> bool:
    """Recompute the residual and check both conjugations preserve spectra.

    True iff U and V are unitary to UNITARY_TOL, the orbit-sum equation
    holds at the solver's reported residual scale, and lambda(U X U*) =
    lambda(X), lambda(V Y V*) = lambda(Y) within MEMBERSHIP_TOL.
    """
    u, v = sol.u.mat, sol.v.mat
    n = prob.n
    for w in (u, v):
        if float(np.abs(w.conj().T @ w - np.eye(n)).max()) > UNITARY_TOL:
            return False
    a, b, r = _residual_terms(u, v, prob)
    if float(np.abs(r).max()) > max(10.0 * sol.residual, 1e-7):
        return False
    lam_x = eig_hermitian(prob.x).values
    lam_y = eig_hermitian(prob.y).values
    lam_ux = eig_hermitian(HermitianMatrix._wrap(a)).values
    lam_vy = eig_hermitian(HermitianMatrix._wrap(b)).values
    scale_x = 1.0 + float(np.abs(lam_x).max())
    scale_y = 1.0 + float(np.abs(lam_y).max())
    return bool(
        np.abs(lam_ux - lam_x).max() <= MEMBERSHIP_TOL * scale_x
        and np.abs(lam_vy - lam_y).max() <= MEMBERSHIP_TOL * scale_y
    )
