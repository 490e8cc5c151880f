"""Constructive orbit-sum solver.

Given Hermitian X and Y, find unitaries U, V with

    U X U* + V Y V* = Z,

where Z is the principal logarithm of e^{X/2} e^Y e^{X/2}, of
e^{2X} # e^{2Y}, or of e^{2X} @ e^{2Y}.  A zero-residual pair always exists,
and the solver reaches it by monotone descent on the product of two unitary
groups.  Each iteration takes one damped Gauss-Newton step: the
Levenberg-Marquardt direction of the linearized residual, from the normal
equations with a tiny ridge, retracted by the exponential map and
backtracked until f falls.  When that step finds no decrease, an
Armijo-backtracked steepest-descent step runs instead, and seeded random
restarts take over when a start stalls above tolerance.

The realization (``realizations.REALIZATIONS``) fixes the group K of the
factors: U(n) for 'glc', or SO(n) for 'slr', where Gauss-Newton directions
are real skew-symmetric and every iterate lies in SO(n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MaxIterReached, ParamOutOfRange
from .linalg import (
    HermitianMatrix,
    SpdMatrix,
    UnitaryMatrix,
    eig_hermitian,
    mat_exp,
    mat_log,
)
from .means import _MeanPair
from .realizations import REALIZATIONS

TARGET_KINDS = ("exp_product", "geometric", "spectral")

_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_ETA_INIT = 1.0
_STALL_RTOL = 1e-14
_STALL_WINDOW = 50
# Levenberg-Marquardt ridge of the Gauss-Newton normal equations, relative
# to the mean diagonal of J^T J.
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
        inner = SpdMatrix._trusted(half.mat @ mat_exp(y).mat @ half.mat)
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
    """Eigendecomposition of skew-Hermitian K; returns scale -> exp(-scale K)."""
    herm = HermitianMatrix._wrap(-1j * k)
    pair = eig_hermitian(herm)
    q = pair.vectors.mat
    lam = pair.values

    def step(scale: float) -> np.ndarray:
        return (q * np.exp(-1j * scale * lam)) @ q.conj().T

    return step


def _gauss_newton_direction(a, b, r, basis):
    """Skew directions (S_u, S_v) with [S_u, A] + [S_v, B] ~ -R (linearized
    residual collapse), from the damped normal equations
    (J^T J + mu I) theta = -J^T r with mu = _RIDGE * mean diag(J^T J).

    Column j of the real Jacobian J is the commutator of basis element j with
    A (first m columns) or B (last m), split into real and imaginary parts.
    Zero directions when J is zero or the basis is empty (nothing to solve).
    """
    m, n = basis.shape[0], a.shape[0]
    comm = np.concatenate([basis @ a - a @ basis, basis @ b - b @ basis])
    comm = comm.reshape(2 * m, n * n)
    jac_t = np.concatenate([comm.real, comm.imag], axis=1)
    gram = jac_t @ jac_t.T
    mu = _RIDGE * float(np.mean(np.diag(gram))) if m else 0.0
    if not mu > 0.0:
        zero = np.zeros((n, n), dtype=complex)
        return zero, zero
    rhs = -(jac_t @ np.concatenate([r.real.ravel(), r.imag.ravel()]))
    gram[np.diag_indices(2 * m)] += mu
    theta = np.linalg.solve(gram, rhs)
    s_u = np.tensordot(theta[:m], basis, axes=1)
    s_v = np.tensordot(theta[m:], basis, axes=1)
    return s_u, s_v


def solve(
    prob: OrbitProblem,
    tol: float = 1e-8,
    max_iter: int = 5000,
    seed: int = 0,
    max_restarts: int = 4,
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

    def f_and_resid(u, v):
        r = _residual_terms(u, v, prob)[2]
        return 0.5 * float(np.sum(np.abs(r) ** 2)), float(np.abs(r).max())

    space = REALIZATIONS[realization]
    basis = space.basis(n)
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

    def line_search(k_u, k_v, u, v, scale, floor, accept):
        """Trial steps s = scale, scale * _BACKTRACK, ... while |s| > floor: the
        first (s, U', V', f', resid') with accept(s, f'), where (U', V') is
        (e^{-s K_u} U, e^{-s K_v} V) mapped into K; None if no trial passes."""
        step_u, step_v = _exp_skew(k_u), _exp_skew(k_v)
        while abs(scale) > floor:
            u_new = space.to_group(step_u(scale) @ u)
            v_new = space.to_group(step_v(scale) @ v)
            f_new, resid_new = f_and_resid(u_new, v_new)
            if accept(scale, f_new):
                return scale, u_new, v_new, f_new, resid_new
            scale *= _BACKTRACK
        return None

    for restart in range(max_restarts + 1):
        if restart == 0:
            u, v = np.eye(n, dtype=complex), np.eye(n, dtype=complex)
        else:
            restarts_used = restart
            base = seed * 8191 + restart * 2
            u, v = space.random_factor(n, base), space.random_factor(n, base + 1)
        f, resid = f_and_resid(u, v)
        trace = [f]
        if on_iterate is not None:
            on_iterate(u, v, f)
        eta = _ETA_INIT
        stall = 0
        while iterations < max_iter and resid > tol:
            iterations += 1
            f_prev = f
            a, b, r = _residual_terms(u, v, prob)
            # Damped Gauss-Newton: quadratic local convergence where plain
            # descent crawls (near-degenerate instances).
            s_u, s_v = _gauss_newton_direction(a, b, r, basis)
            found = None
            if float(np.abs(s_u).max() + np.abs(s_v).max()) > 0.0:
                # Retract along +damp S for damp = 1, 1/2, ..., 2^-9 (_BACKTRACK).
                found = line_search(
                    s_u, s_v, u, v, -1.0, 1e-3,
                    lambda _, f_new: f_new <= f * (1.0 - 1e-4),
                )
                if found is not None:
                    _, u, v, f, resid = found
                    steps["gauss_newton_steps"] += 1

            if found is None:
                # Armijo-backtracked steepest descent with exponential
                # retraction; the gradient eigensystems are reused across
                # backtracking trials.
                k_u = r @ a - a @ r
                k_v = r @ b - b @ r
                gnorm2 = float(
                    np.sum(np.abs(k_u) ** 2) + np.sum(np.abs(k_v) ** 2)
                )
                if gnorm2 > 0.0:
                    found = line_search(
                        k_u, k_v, u, v, min(eta * 2.0, 1e3), 1e-18,
                        lambda eta_try, f_new: f_new <= f - _ARMIJO_C * eta_try * gnorm2,
                    )
                    if found is not None:
                        eta, u, v, f, resid = found
                        steps["descent_steps"] += 1

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
        if iterations >= max_iter:
            break

    u, v, f, resid, trace = best
    raise MaxIterReached(
        f"orbit solve stopped ({stop_reason}) at residual {resid:.3e} after "
        f"{iterations} iterations and {restarts_used} restarts",
        solution=solution(u, v, resid, trace, stop_reason),
    )


def verify_membership(sol: OrbitSolution, prob: OrbitProblem, tol: float = 1e-10) -> bool:
    """Recompute the residual and check both conjugations preserve spectra.

    True iff U and V are unitary, the orbit-sum equation holds at the
    solver's reported residual scale, and lambda(U X U*) = lambda(X),
    lambda(V Y V*) = lambda(Y) within tol.
    """
    u, v = sol.u.mat, sol.v.mat
    n = prob.n
    if float(np.abs(u.conj().T @ u - np.eye(n)).max()) > 1e-8:
        return False
    if float(np.abs(v.conj().T @ v - np.eye(n)).max()) > 1e-8:
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
        np.abs(lam_ux - lam_x).max() <= tol * scale_x
        and np.abs(lam_vy - lam_y).max() <= tol * scale_y
    )
