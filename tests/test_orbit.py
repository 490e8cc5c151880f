import numpy as np
import pytest

from spdmeans import (
    DomainError,
    HermitianMatrix,
    MaxIterReached,
    OrbitProblem,
    ParamOutOfRange,
    UnitaryMatrix,
    build_target,
    eig_hermitian,
    mat_exp,
    objective,
    random_hermitian,
    random_orthogonal,
    random_real_symmetric_traceless,
    random_unitary,
    riemannian_grad,
    solve,
    verify_membership,
)
from spdmeans.orbit import _gauss_newton_direction
from spdmeans.realizations import REALIZATIONS


def diag_h(*vals):
    return HermitianMatrix(np.diag(vals).astype(complex))


class TestBuildTarget:
    def test_commuting_exp_product(self):
        x = diag_h(0.5, -0.3)
        y = diag_h(0.2, 0.1)
        z = build_target(x, y, "exp_product")
        assert np.abs(z.mat - (x.mat + y.mat)).max() < 1e-13

    def test_zero_x_all_kinds(self):
        x = HermitianMatrix(np.zeros((3, 3)))
        y = random_hermitian(3, 4, 1.0)
        for kind in ("exp_product", "geometric", "spectral"):
            z = build_target(x, y, kind)
            assert np.abs(z.mat - y.mat).max() <= 1e-11 * np.abs(y.mat).max()

    def test_geometric_equal_arguments(self):
        x = random_hermitian(3, 9, 1.0)
        z = build_target(x, x, "geometric")
        assert np.abs(z.mat - 2.0 * x.mat).max() <= 1e-11 * np.abs(x.mat).max()

    def test_unknown_kind(self):
        x = random_hermitian(2, 1, 1.0)
        with pytest.raises(ParamOutOfRange):
            build_target(x, x, "harmonic")

    @pytest.mark.parametrize("kind", ["exp_product", "geometric", "spectral"])
    def test_trace_condition(self, kind):
        for seed in range(10):
            x = random_hermitian(2 + seed % 4, 120 + seed, 1.0)
            y = random_hermitian(2 + seed % 4, 220 + seed, 1.0)
            z = build_target(x, y, kind)
            gap = abs(
                np.trace(z.mat).real - np.trace(x.mat).real - np.trace(y.mat).real
            )
            assert gap <= 1e-10 * max(1.0, abs(np.trace(z.mat).real))

    def test_exp_product_reconstructs(self):
        x = random_hermitian(3, 5, 1.0)
        y = random_hermitian(3, 6, 1.0)
        prob = OrbitProblem.create(x, y, "exp_product")
        ex = mat_exp(HermitianMatrix(0.5 * x.mat)).mat
        target = ex @ mat_exp(y).mat @ ex
        assert (
            np.abs(mat_exp(prob.z).mat - target).max()
            <= 1e-11 * np.abs(target).max()
        )


    # At scale 12 the product e^{X/2} e^Y e^{X/2} (exp_product) and the mean
    # e^{2X} @ e^{2Y} (spectral) come out with a negative computed
    # eigenvalue; their log was NaN.
    @pytest.mark.parametrize("kind,seed", [("exp_product", 7026), ("spectral", 7042)])
    def test_numerically_indefinite_target_raises(self, kind, seed):
        x = random_hermitian(4, seed, 12.0)
        y = random_hermitian(4, seed + 1, 12.0)
        with pytest.raises(DomainError, match="not positive definite"):
            build_target(x, y, kind)


class TestObjectiveAndGradient:
    def test_objective_zero_at_solution(self):
        x = diag_h(0.5, -0.3)
        y = diag_h(0.2, 0.1)
        prob = OrbitProblem.create(x, y, "exp_product")
        eye = UnitaryMatrix(np.eye(2))
        assert objective(eye, eye, prob) < 1e-26

    def test_objective_zero_matrices(self):
        zero = HermitianMatrix(np.zeros((3, 3)))
        prob = OrbitProblem.create(zero, zero, "exp_product")
        u = random_unitary(3, 1)
        v = random_unitary(3, 2)
        assert objective(u, v, prob) < 1e-28

    def test_objective_two_computations_agree(self):
        x = random_hermitian(4, 11, 1.0)
        y = random_hermitian(4, 12, 1.0)
        prob = OrbitProblem.create(x, y, "spectral")
        u = random_unitary(4, 13)
        v = random_unitary(4, 14)
        f = objective(u, v, prob)
        r = (
            u.mat @ x.mat @ u.mat.conj().T
            + v.mat @ y.mat @ v.mat.conj().T
            - prob.z.mat
        )
        f_trace = 0.5 * float(np.real(np.trace(r.conj().T @ r)))
        assert abs(f - f_trace) <= 1e-12 * max(f, 1.0)

    def test_gradient_zero_at_solution(self):
        x = diag_h(0.5, -0.3)
        y = diag_h(0.2, 0.1)
        prob = OrbitProblem.create(x, y, "exp_product")
        eye = UnitaryMatrix(np.eye(2))
        k_u, k_v = riemannian_grad(eye, eye, prob)
        assert np.abs(k_u).max() < 1e-13
        assert np.abs(k_v).max() < 1e-13

    def test_gradient_skew_hermitian(self):
        x = random_hermitian(4, 21, 1.0)
        y = random_hermitian(4, 22, 1.0)
        prob = OrbitProblem.create(x, y, "geometric")
        u = random_unitary(4, 23)
        v = random_unitary(4, 24)
        k_u, k_v = riemannian_grad(u, v, prob)
        assert np.abs(k_u + k_u.conj().T).max() < 1e-12
        assert np.abs(k_v + k_v.conj().T).max() < 1e-12

    def test_finite_difference_match(self):
        rng = np.random.default_rng(0)
        eps = 1e-6
        for trial in range(25):
            n = 2 + trial % 5
            x = random_hermitian(n, 3000 + trial, 1.0)
            y = random_hermitian(n, 4000 + trial, 1.0)
            prob = OrbitProblem.create(x, y, "exp_product")
            u = random_unitary(n, 5000 + trial)
            v = random_unitary(n, 6000 + trial)
            k_u, _ = riemannian_grad(u, v, prob)
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            k = (g - g.conj().T) / 2.0
            pair = eig_hermitian(HermitianMatrix(-1j * k))
            q = pair.vectors.mat
            fwd = (q * np.exp(1j * eps * pair.values)) @ q.conj().T
            bwd = (q * np.exp(-1j * eps * pair.values)) @ q.conj().T
            f_plus = objective(UnitaryMatrix(fwd @ u.mat), v, prob)
            f_minus = objective(UnitaryMatrix(bwd @ u.mat), v, prob)
            fd = (f_plus - f_minus) / (2.0 * eps)
            inner = float(np.real(np.sum(np.conj(k) * k_u)))
            assert abs(fd - inner) <= 1e-4 * max(abs(inner), 1e-300)


class TestSolve:
    def test_commuting_zero_iterations(self):
        x = diag_h(0.5, -0.3)
        y = diag_h(0.2, 0.1)
        sol = solve(OrbitProblem.create(x, y, "exp_product"))
        assert sol.iterations == 0
        assert sol.residual <= 1e-12

    @pytest.mark.parametrize("kind", ["exp_product", "geometric", "spectral"])
    def test_small_random_instances(self, kind):
        for seed in range(5):
            n = 2 + seed
            x = random_hermitian(n, 700 + seed, 1.0)
            y = random_hermitian(n, 800 + seed, 1.0)
            prob = OrbitProblem.create(x, y, kind)
            sol = solve(prob, seed=seed)
            assert sol.residual <= 1e-8
            assert sol.restarts <= 4
            assert verify_membership(sol, prob)

    def test_trace_monotone_and_membership_every_iterate(self):
        x = random_hermitian(4, 901, 1.0)
        y = random_hermitian(4, 902, 1.0)
        prob = OrbitProblem.create(x, y, "geometric")
        lam_x = eig_hermitian(x).values
        seen = []

        def on_iterate(u, v, f):
            lam_ux = np.linalg.eigvalsh(u @ x.mat @ u.conj().T)[::-1]
            assert np.abs(lam_ux - lam_x).max() <= 1e-10 * (1 + np.abs(lam_x).max())
            assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-10
            seen.append(f)

        sol = solve(prob, on_iterate=on_iterate)
        assert sol.residual <= 1e-8
        assert all(b <= a for a, b in zip(seen, seen[1:]))

    def test_max_iter_reached_carries_best(self):
        x = random_hermitian(4, 51, 1.0)
        y = random_hermitian(4, 52, 1.0)
        prob = OrbitProblem.create(x, y, "spectral")
        with pytest.raises(MaxIterReached) as err:
            solve(prob, max_iter=1, tol=1e-14)
        best = err.value.solution
        assert best is not None
        assert not best.converged
        assert best.residual < 1.0
        assert best.stop_reason == "budget"

    @pytest.mark.parametrize("realization", ["slr", "glc"])
    def test_slow_alignment_hands_over_to_gauss_newton(self, realization):
        # Alignment alone shrinks f by about 8% a pass here: 751 iterations
        # when every such pass skipped the Gauss-Newton step.
        x = random_real_symmetric_traceless(3, 100310)
        y = random_real_symmetric_traceless(3, 100311)
        prob = OrbitProblem.create(x, y, "geometric")
        sol = solve(prob, seed=100307, realization=realization)
        assert sol.residual <= 1e-8
        assert sol.iterations <= 20
        assert sol.stop_reason == "converged"
        assert sol.gauss_newton_steps >= 1
        assert verify_membership(sol, prob)

    def test_bad_params(self):
        x = random_hermitian(2, 1, 1.0)
        prob = OrbitProblem.create(x, x, "exp_product")
        with pytest.raises(ParamOutOfRange):
            solve(prob, realization="su2")
        with pytest.raises(ParamOutOfRange):
            solve(prob, tol=0.0)
        with pytest.raises(ParamOutOfRange):
            solve(prob, max_iter=-1)
        with pytest.raises(ParamOutOfRange):
            solve(prob, max_restarts=-1)


class TestVerifyMembership:
    def test_returned_solution_verifies(self):
        x = random_hermitian(3, 61, 1.0)
        y = random_hermitian(3, 62, 1.0)
        prob = OrbitProblem.create(x, y, "exp_product")
        sol = solve(prob)
        assert verify_membership(sol, prob)

    def test_perturbed_factor_fails(self):
        x = random_hermitian(3, 71, 1.0)
        y = random_hermitian(3, 72, 1.0)
        prob = OrbitProblem.create(x, y, "exp_product")
        sol = solve(prob)
        bad = sol.u.mat.copy()
        bad[0, 0] += 1e-3
        fake = type(sol)(
            u=UnitaryMatrix.__new__(UnitaryMatrix),
            v=sol.v,
            residual=sol.residual,
            iterations=sol.iterations,
            objective_trace=sol.objective_trace,
        )
        fake.u.mat = bad
        assert not verify_membership(fake, prob)


def _loop_skew_basis(n, realify):
    """Reference: the basis built element by element."""
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[i, j] = 1.0
            s[j, i] = -1.0
            basis.append(s)
    if not realify:
        for i in range(n):
            for j in range(i + 1, n):
                s = np.zeros((n, n), dtype=complex)
                s[i, j] = 1.0j
                s[j, i] = 1.0j
                basis.append(s)
        for i in range(n):
            s = np.zeros((n, n), dtype=complex)
            s[i, i] = 1.0j
            basis.append(s)
    return basis


def _loop_gauss_newton_direction(a, b, r, basis):
    """Reference: the Jacobian assembled one commutator column at a time."""
    cols = []
    for s in basis:
        c = s @ a - a @ s
        cols.append(np.concatenate([c.real.ravel(), c.imag.ravel()]))
    for s in basis:
        c = s @ b - b @ s
        cols.append(np.concatenate([c.real.ravel(), c.imag.ravel()]))
    jac = np.stack(cols, axis=1)
    rhs = -np.concatenate([r.real.ravel(), r.imag.ravel()])
    theta, *_ = np.linalg.lstsq(jac, rhs, rcond=1e-10)
    m = len(basis)
    s_u = sum(t * s for t, s in zip(theta[:m], basis))
    s_v = sum(t * s for t, s in zip(theta[m:], basis))
    return s_u, s_v


class TestGaussNewtonJacobian:
    @pytest.mark.parametrize("realization", ["glc", "slr"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_basis_matches_loop(self, n, realization):
        realify = realization == "slr"
        assert np.array_equal(
            REALIZATIONS[realization].basis(n), np.stack(_loop_skew_basis(n, realify))
        )

    @pytest.mark.parametrize("realization", ["glc", "slr"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_batched_matches_loop(self, n, realization):
        realify = realization == "slr"
        sample = random_real_symmetric_traceless if realify else random_hermitian
        for trial in range(3):
            seed = 9000 + 10 * n + trial
            x, y = sample(n, seed), sample(n, seed + 1)
            prob = OrbitProblem.create(x, y, "exp_product")
            factor = random_orthogonal if realify else random_unitary
            u, v = factor(n, seed + 2).mat, factor(n, seed + 3).mat
            a = u @ x.mat @ u.conj().T
            b = v @ y.mat @ v.conj().T
            r = a + b - prob.z.mat
            got = _gauss_newton_direction(a, b, r, REALIZATIONS[realization].basis(n))
            want = _loop_gauss_newton_direction(a, b, r, _loop_skew_basis(n, realify))
            for g, w in zip(got, want):
                assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()
