"""Constructive orbit-sum solver.

Given Hermitian X and Y, find unitaries U, V with

    U X U* + V Y V* = Z,

where Z is the principal logarithm of e^{X/2} e^Y e^{X/2}, of
e^{2X} # e^{2Y}, or of e^{2X} @ e^{2Y}.  A zero-residual pair always exists,
and the solver reaches it by monotone descent on the product of two unitary
groups: Armijo-backtracked steepest descent with exponential retraction,
accelerated by exact block-alignment steps (the closed-form minimizer of
each factor with the other held fixed) and damped Gauss-Newton steps, plus
seeded random restarts when a non-global stationary point is hit.

Alignment converges only linearly near degenerate instances, so an
alignment pass ends the iteration only when it leaves f below
_FAST_ALIGN_RATIO (1e-2) of its value before the pass; otherwise the
Gauss-Newton step runs in the same iteration.

With ``realization='slr'`` everything is constrained to the real symmetric /
special orthogonal picture: gradients are real skew-symmetric, retractions
stay in SO(n), and restarts draw from SO(n).
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
from .sampling import random_orthogonal, random_unitary

TARGET_KINDS = ("exp_product", "geometric", "spectral")

_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_ETA_INIT = 1.0
_STALL_RTOL = 1e-14
_STALL_WINDOW = 50
# An alignment pass ends its iteration only if it leaves f below this
# fraction of its previous value.
_FAST_ALIGN_RATIO = 1e-2


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
    # Why the solve ended: 'converged', 'budget' (max_iter spent), or why its
    # last start ended: 'stall' (no step accepted, or no relative progress
    # for _STALL_WINDOW iterations) or 'window' (an alignment start that did
    # not halve f in 60 iterations).  The counts are accepted steps of each
    # type, summed over all starts.
    stop_reason: str = "converged"
    align_steps: int = 0
    gauss_newton_steps: int = 0
    descent_steps: int = 0


def objective(u: UnitaryMatrix, v: UnitaryMatrix, prob: OrbitProblem) -> float:
    """f(U, V) = 1/2 ||U X U* + V Y V* - Z||_F^2 (entrywise sum form)."""
    r = _residual_matrix(u.mat, v.mat, prob)
    return 0.5 * float(np.sum(np.abs(r) ** 2))


def _residual_matrix(u: np.ndarray, v: np.ndarray, prob: OrbitProblem) -> np.ndarray:
    return (
        u @ prob.x.mat @ u.conj().T
        + v @ prob.y.mat @ v.conj().T
        - prob.z.mat
    )


def riemannian_grad(
    u: UnitaryMatrix, v: UnitaryMatrix, prob: OrbitProblem
) -> tuple[np.ndarray, np.ndarray]:
    """Riemannian gradient (K_U, K_V) of the objective at (U, V).

    With A = U X U*, B = V Y V*, R = A + B - Z the gradients are the
    skew-Hermitian commutators K_U = [R, A] and K_V = [R, B]; the
    directional derivative along (e^{eps K} U, V) at eps = 0 equals
    <K, K_U>_F, so descent retracts along e^{-eta K_U} U.
    """
    a = u.mat @ prob.x.mat @ u.mat.conj().T
    b = v.mat @ prob.y.mat @ v.mat.conj().T
    r = a + b - prob.z.mat
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


def _align_factor(
    x: HermitianMatrix, w: np.ndarray, realify: bool
) -> np.ndarray:
    """Unitary U minimizing ||U X U* - W||_F for Hermitian W.

    Matching the descending eigenbases is optimal: U = Q_W Q_X*.  In the
    real realization a determinant of -1 is repaired by negating one
    eigenvector between the bases, which leaves U X U* unchanged but lands
    U in SO(n).
    """
    pw = eig_hermitian(HermitianMatrix._wrap(w))
    px = eig_hermitian(x)
    qw = pw.vectors.mat
    qx = px.vectors.mat
    u = qw @ qx.conj().T
    if realify:
        u = u.real
        if np.linalg.det(u) < 0.0:
            u = qw @ np.conj(qx * np.r_[-1.0, np.ones(qx.shape[0] - 1)]).T
            u = u.real
        u = u.astype(complex)
    return u


_BASIS_CACHE: dict = {}


def _skew_basis(n: int, realify: bool) -> np.ndarray:
    """Fixed real basis of the skew-Hermitian (or real skew-symmetric)
    algebra, as one read-only (m, n, n) array."""
    key = (n, realify)
    if key not in _BASIS_CACHE:
        iu, ju = np.triu_indices(n, 1)
        k = len(iu)
        off = np.arange(k)
        basis = np.zeros((k if realify else 2 * k + n, n, n), dtype=complex)
        basis[off, iu, ju] = 1.0
        basis[off, ju, iu] = -1.0
        if not realify:
            basis[k + off, iu, ju] = 1.0j
            basis[k + off, ju, iu] = 1.0j
            diag = np.arange(n)
            basis[2 * k + diag, diag, diag] = 1.0j
        basis.setflags(write=False)
        _BASIS_CACHE[key] = basis
    return _BASIS_CACHE[key]


def _gauss_newton_direction(a, b, r, basis):
    """Least-squares skew directions (S_u, S_v) with
    [S_u, A] + [S_v, B] ~ -R (linearized residual collapse).

    Column j of the Jacobian is the commutator of basis element j with A
    (first m columns) or B (last m), split into real and imaginary parts.
    """
    m = basis.shape[0]
    comm = np.concatenate([basis @ a - a @ basis, basis @ b - b @ basis])
    comm = comm.reshape(2 * m, -1)
    jac = np.concatenate([comm.real, comm.imag], axis=1).T
    rhs = -np.concatenate([r.real.ravel(), r.imag.ravel()])
    theta, *_ = np.linalg.lstsq(jac, rhs, rcond=1e-10)
    s_u = np.tensordot(theta[:m], basis, axes=1)
    s_v = np.tensordot(theta[m:], basis, axes=1)
    return s_u, s_v


def _initial_factors(n: int, seed: int, restart: int, realization: str):
    if restart == 0:
        eye = np.eye(n, dtype=complex)
        return eye, eye.copy()
    base = seed * 8191 + restart * 2
    if realization == "slr":
        return (
            random_orthogonal(n, base).mat.copy(),
            random_orthogonal(n, base + 1).mat.copy(),
        )
    return (
        random_unitary(n, base).mat.copy(),
        random_unitary(n, base + 1).mat.copy(),
    )


def _pauli_split(m: np.ndarray):
    """Hermitian 2x2 as c I + r . sigma with r in R^3."""
    c = (m[0, 0].real + m[1, 1].real) / 2.0
    r = np.array(
        [m[0, 1].real, -m[0, 1].imag, (m[0, 0].real - m[1, 1].real) / 2.0]
    )
    return c, r


def _pauli_join(c: float, r: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [c + r[2], r[0] - 1j * r[1]],
            [r[0] + 1j * r[1], c - r[2]],
        ],
        dtype=complex,
    )


def _closed_form_2x2(prob: OrbitProblem, realify: bool):
    """Exact 2x2 candidates via the two-link arm reduction.

    Conjugating a Hermitian 2x2 rotates its Pauli vector, so the orbit-sum
    equation asks for points on spheres of radii |x|, |y| summing to the
    target vector: the law of cosines gives the bend angle, one elbow per
    sign.  Near the straight-arm boundary this is exact where the iterative
    paths crawl, so the candidates are tried alongside the identity start.
    """
    cx, rx = _pauli_split(prob.x.mat)
    cy, ry = _pauli_split(prob.y.mat)
    _, rz = _pauli_split(prob.z.mat)
    a, b, zn = np.linalg.norm(rx), np.linalg.norm(ry), np.linalg.norm(rz)
    if zn < 1e-300:
        # Antipodal arms; any common axis works, use x's own direction.
        p = rx.copy()
        candidates = [(p, -p)]
    else:
        zhat = rz / zn
        if a < 1e-300:
            candidates = [(np.zeros(3), rz.copy())]
        else:
            cos_phi = np.clip((zn * zn + a * a - b * b) / (2.0 * a * zn), -1.0, 1.0)
            sin_phi = np.sqrt(max(0.0, 1.0 - cos_phi * cos_phi))
            if realify:
                # Real symmetric matrices keep the Pauli-y component zero.
                perp = np.array([-zhat[2], 0.0, zhat[0]])
            else:
                trial = np.array([1.0, 0.0, 0.0])
                if abs(zhat[0]) > 0.9:
                    trial = np.array([0.0, 1.0, 0.0])
                perp = trial - np.dot(trial, zhat) * zhat
            pn = np.linalg.norm(perp)
            perp = perp / pn if pn > 0.0 else np.zeros(3)
            candidates = []
            for elbow in (1.0, -1.0):
                p = a * (cos_phi * zhat + elbow * sin_phi * perp)
                candidates.append((p, rz - p))
    out = []
    for p, q in candidates:
        qn = np.linalg.norm(q)
        qdir = q / qn if qn > 1e-300 else np.array([0.0, 0.0, 1.0])
        target_a = _pauli_join(cx, p)
        target_b = _pauli_join(cy, b * qdir)
        u = _align_factor(prob.x, target_a, realify)
        v = _align_factor(prob.y, target_b, realify)
        out.append((u, v))
    return out


def solve(
    prob: OrbitProblem,
    tol: float = 1e-8,
    max_iter: int = 5000,
    seed: int = 0,
    max_restarts: int = 4,
    realization: str = "glc",
    method: str = "hybrid",
    on_iterate=None,
) -> OrbitSolution:
    """Drive the residual ||U X U* + V Y V* - Z||_max below tol.

    method='hybrid' (default) mixes three monotone step types: exact
    block-alignment, damped Gauss-Newton, and Armijo steepest descent.
    method='descent' runs the plain gradient scheme only.  The objective
    trace over accepted iterates is non-increasing by construction.
    In the hybrid method an alignment pass ends its iteration only when it
    leaves f below _FAST_ALIGN_RATIO (1e-2) of its value before the pass;
    after a slower pass the damped Gauss-Newton step runs in the same
    iteration, and the descent step runs when neither moved.
    Raises MaxIterReached (carrying the best iterate) only if every start
    stalls above tolerance within the iteration budget.  The solution's
    stop_reason and step counts say why and how the solve ended.
    """
    if realization not in ("glc", "slr"):
        raise ParamOutOfRange(f"unknown realization {realization!r}")
    if method not in ("hybrid", "descent"):
        raise ParamOutOfRange(f"unknown method {method!r}")
    if not tol > 0.0:
        raise ParamOutOfRange("tol must be positive")
    if max_iter < 0 or max_restarts < 0:
        raise ParamOutOfRange("max_iter and max_restarts must be non-negative")
    n = prob.n
    xm, ym, zm = prob.x.mat, prob.y.mat, prob.z.mat

    def f_and_resid(u, v):
        r = u @ xm @ u.conj().T + v @ ym @ v.conj().T - zm
        return 0.5 * float(np.sum(np.abs(r) ** 2)), float(np.abs(r).max())

    realify = realization == "slr"
    hybrid = method == "hybrid"
    basis = _skew_basis(n, realify)
    best = None
    iterations = 0
    restarts_used = 0
    trace: list = []
    steps = {"align_steps": 0, "gauss_newton_steps": 0, "descent_steps": 0}

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

    for restart in range(max_restarts + 1):
        if restart > 0:
            restarts_used = restart
        # Alignment steps race to the solution on well-behaved instances but
        # are attracted to strict saddles of near-degenerate ones, so later
        # restarts fall back to gradient/Gauss-Newton iterations, which
        # avoid strict saddles from random starts.
        align_this_start = hybrid and restart < 2
        u, v = _initial_factors(n, seed, restart, realization)
        f, resid = f_and_resid(u, v)
        if restart == 0 and n == 2:
            # The 2x2 problem has a closed form; try its candidates against
            # the identity start and begin from whichever is best.
            for u_c, v_c in _closed_form_2x2(prob, realify):
                f_c, resid_c = f_and_resid(u_c, v_c)
                if f_c < f:
                    u, v, f, resid = u_c, v_c, f_c, resid_c
        trace = [f]
        if on_iterate is not None:
            on_iterate(u, v, f)
        eta = _ETA_INIT
        stall = 0
        window_anchor = f
        window_len = 0
        while iterations < max_iter and resid > tol:
            iterations += 1
            f_prev = f
            moved = False
            fast_progress = False

            if align_this_start:
                # Exact minimization of each factor with the other fixed:
                # never increases f, and usually collapses it by orders of
                # magnitude per pass.
                b = v @ ym @ v.conj().T
                u_new = _align_factor(prob.x, zm - b, realify)
                a_new = u_new @ xm @ u_new.conj().T
                v_new = _align_factor(prob.y, zm - a_new, realify)
                f_new, resid_new = f_and_resid(u_new, v_new)
                if f_new <= f:
                    u, v, f, resid = u_new, v_new, f_new, resid_new
                    moved = f < f_prev
                    steps["align_steps"] += moved
                    fast_progress = f < _FAST_ALIGN_RATIO * f_prev

            if not fast_progress and resid > tol:
                a = u @ xm @ u.conj().T
                b = v @ ym @ v.conj().T
                r = a + b - zm

            if hybrid and not fast_progress and resid > tol:
                # Damped Gauss-Newton candidate: quadratic local convergence
                # where plain descent crawls (near-degenerate instances).
                s_u, s_v = _gauss_newton_direction(a, b, r, basis)
                if float(np.abs(s_u).max() + np.abs(s_v).max()) > 0.0:
                    gn_u = _exp_skew(s_u)
                    gn_v = _exp_skew(s_v)
                    damp = 1.0
                    for _ in range(10):
                        u_new = gn_u(-damp) @ u
                        v_new = gn_v(-damp) @ v
                        if realify:
                            u_new = u_new.real.astype(complex)
                            v_new = v_new.real.astype(complex)
                        f_new, resid_new = f_and_resid(u_new, v_new)
                        if f_new <= f * (1.0 - 1e-4):
                            u, v, f, resid = u_new, v_new, f_new, resid_new
                            moved = True
                            steps["gauss_newton_steps"] += 1
                            break
                        damp *= 0.5

            if not fast_progress and not moved and resid > tol:
                # Armijo-backtracked steepest descent with exponential
                # retraction; the gradient eigensystems are reused across
                # backtracking trials.
                k_u = r @ a - a @ r
                k_v = r @ b - b @ r
                gnorm2 = float(
                    np.sum(np.abs(k_u) ** 2) + np.sum(np.abs(k_v) ** 2)
                )
                if gnorm2 > 0.0:
                    step_u = _exp_skew(k_u)
                    step_v = _exp_skew(k_v)
                    eta_try = min(eta * 2.0, 1e3)
                    while eta_try > 1e-18:
                        u_new = step_u(eta_try) @ u
                        v_new = step_v(eta_try) @ v
                        if realify:
                            u_new = u_new.real.astype(complex)
                            v_new = v_new.real.astype(complex)
                        f_new, resid_new = f_and_resid(u_new, v_new)
                        if f_new <= f - _ARMIJO_C * eta_try * gnorm2:
                            u, v, f, resid = u_new, v_new, f_new, resid_new
                            eta = eta_try
                            moved = True
                            steps["descent_steps"] += 1
                            break
                        eta_try *= _BACKTRACK

            trace.append(f)
            if on_iterate is not None:
                on_iterate(u, v, f)
            rel_drop = (f_prev - f) / max(f_prev, 1e-300)
            stall = stall + 1 if rel_drop < _STALL_RTOL else 0
            if not moved or stall >= _STALL_WINDOW:
                stop_reason = "stall"
                break
            # Windowed progress guard for alignment starts: creeping toward
            # a positive fixed value makes only vanishing headway per
            # window, so restart instead of burning the iteration budget.
            # Gradient-only starts are left to run patiently; they need the
            # slow stretch to clear saddle plateaus.
            if align_this_start:
                window_len += 1
                if window_len >= 60:
                    if f > 0.5 * window_anchor:
                        stop_reason = "window"
                        break
                    window_anchor = f
                    window_len = 0
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
    resid = float(np.abs(_residual_matrix(u, v, prob)).max())
    if resid > max(10.0 * sol.residual, 1e-7):
        return False
    lam_x = eig_hermitian(prob.x).values
    lam_y = eig_hermitian(prob.y).values
    lam_ux = eig_hermitian(HermitianMatrix._wrap(u @ prob.x.mat @ u.conj().T)).values
    lam_vy = eig_hermitian(HermitianMatrix._wrap(v @ prob.y.mat @ v.conj().T)).values
    scale_x = 1.0 + float(np.abs(lam_x).max())
    scale_y = 1.0 + float(np.abs(lam_y).max())
    return bool(
        np.abs(lam_ux - lam_x).max() <= tol * scale_x
        and np.abs(lam_vy - lam_y).max() <= tol * scale_y
    )
