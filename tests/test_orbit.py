import dataclasses
import json
import logging
import warnings
from pathlib import Path

import numpy as np
import pytest

from spdmeans import (
    DimensionMismatch,
    DomainError,
    HermitianMatrix,
    MaxIterReached,
    OrbitProblem,
    ParamOutOfRange,
    UnitaryMatrix,
    build_target,
    eig_hermitian,
    load_hermitian,
    mat_exp,
    objective,
    random_hermitian,
    random_orthogonal,
    random_real_symmetric_traceless,
    random_unitary,
    riemannian_grad,
    save_matrix,
    solve,
    verify_membership,
)
from spdmeans import orbit
from spdmeans.linalg import eigh_stack
from spdmeans.orbit import _conjugates, _gauss_newton_direction
from spdmeans.realizations import REALIZATIONS
from spdmeans.suites import solve_passes

from orbit_stress_set import inputs as stress_inputs


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
    # e^{2X} @ e^{2Y} (spectral) have eigenvalue spreads 38.1 and 33.9 in
    # log, beyond the range log(1 / SPD_TOL) = 27.6.
    @pytest.mark.parametrize("kind,seed", [("exp_product", 7026), ("spectral", 7042)])
    def test_numerically_indefinite_target_raises(self, kind, seed):
        x = random_hermitian(4, seed, 12.0)
        y = random_hermitian(4, seed + 1, 12.0)
        with pytest.raises(DomainError, match="not positive definite"):
            build_target(x, y, kind)


    # Y = 0 gives Z = X for every kind, so the range is the spread of X.
    @pytest.mark.parametrize("kind", ["exp_product", "geometric", "spectral"])
    def test_range_is_the_spd_range_of_the_target(self, kind):
        inside = diag_h(13.7, 0.0, -13.7)
        z = build_target(inside, diag_h(0.0, 0.0, 0.0), kind)
        assert np.abs(z.mat - inside.mat).max() <= 1e-13 * 13.7
        with pytest.raises(DomainError, match="not positive definite"):
            build_target(diag_h(13.9, 0.0, -13.9), diag_h(0.0, 0.0, 0.0), kind)


def overflow_pair():
    """X = U diag(400, -400) U* and Y = diag(360, -360): max |eig X| + max
    |eig Y| = 760, past the exponent bound of the target's factors."""
    u = random_unitary(2, 4).mat
    return HermitianMatrix(u @ np.diag([400.0, -400.0]) @ u.conj().T), diag_h(360.0, -360.0)


class TestSeededAndLoadedTargets:
    # A seeded draw builds its target from the eigenpairs it was drawn from;
    # its saved and reloaded copy, as ``orbit-solve --input`` reads it, from
    # a fresh eigh.  The two targets agree to rounding, and both solve.
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kind", orbit.TARGET_KINDS)
    @pytest.mark.parametrize("realization", ["glc", "slr"])
    def test_targets_agree_and_both_solve(self, tmp_path, realization, kind, n):
        space = REALIZATIONS[realization]
        drawn = space.sample(n, 80 + n), space.sample(n, 81 + n)
        loaded = []
        for k, m in enumerate(drawn):
            save_matrix(tmp_path / f"{k}.json", m.mat)
            loaded.append(space.project(load_hermitian(tmp_path / f"{k}.json")))
        for m in loaded:
            for got, want in zip(m._eig, eigh_stack(m.mat)):
                assert np.array_equal(got, want)
        probs = [OrbitProblem.create(*pair, kind) for pair in (drawn, loaded)]
        z_drawn, z_loaded = (prob.z.mat for prob in probs)
        assert np.abs(z_drawn - z_loaded).max() <= 1e-13 * np.abs(z_drawn).max()
        for prob in probs:
            sol = solve(prob, seed=n, realization=realization)
            assert solve_passes(realization, prob, sol)


class TestBuildTargetFloatRange:
    @pytest.mark.parametrize("kind", orbit.TARGET_KINDS)
    def test_overflowing_factors_raise_before_any_exp(self, kind):
        x, y = overflow_pair()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="float range: max .eig X. \\+ max .eig Y. = 760"):
                build_target(x, y, kind)

    @pytest.mark.parametrize("kind", orbit.TARGET_KINDS)
    def test_inside_the_bound_builds(self, kind):
        # b = 709 < log(float max / 2) = 709.09; Z = X + Y exactly for
        # commuting scalar inputs.
        x = y = diag_h(354.5, 354.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = build_target(x, y, kind)
        assert np.allclose(z.mat, np.diag([709.0, 709.0]), rtol=1e-13, atol=0.0)


def _fixture_matrix(entry):
    arr = np.array(entry["re"], dtype=complex)
    if "im" in entry:
        arr += 1j * np.array(entry["im"])
    return arr


# Targets of a sweep of input pairs (glc and slr; n 3..6; scales 1, 3, 6;
# standard, shared-spectrum and Y ~ -X inputs) to 60 digits, written by
# tests/make_target_reference.py with mpmath, which the tests do not need.
TARGET_REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "orbit_target_reference.json").read_text()
)["cases"]
# Bound on each target's max-entry error, relative to max(1, max |Z|), and
# on its trace gap |tr Z - tr X - tr Y|, relative to max(1, |tr Z|):
# TARGET_C * e^{spread / 2} * eps, where spread is the sum of the eigenvalue
# spreads of X and Y: e^{spread} bounds the condition number of e^{-X} e^Y
# and e^X e^Y, and a Gram product's error is about eps * sqrt(cond).  The
# worst case of the sweep reads about 11 of TARGET_C.
TARGET_C = 32.0


class TestTargetAccuracy:
    @pytest.mark.parametrize("realization", ["glc", "slr"])
    @pytest.mark.parametrize("kind", ["exp_product", "geometric", "spectral"])
    def test_error_and_trace_gap_within_bound(self, realization, kind):
        cases = [c for c in TARGET_REFERENCE if c["realization"] == realization]
        assert len(cases) == 36
        for case in cases:
            x = HermitianMatrix(_fixture_matrix(case["x"]))
            y = HermitianMatrix(_fixture_matrix(case["y"]))
            want = _fixture_matrix(case["z"][kind])
            spread = sum(np.ptp(eig_hermitian(m).values) for m in (x, y))
            bound = TARGET_C * np.exp(spread / 2.0) * np.finfo(float).eps
            z = build_target(x, y, kind).mat
            err = np.abs(z - want).max() / max(1.0, np.abs(want).max())
            gap = abs(np.trace(z - x.mat - y.mat).real) / max(1.0, abs(np.trace(want).real))
            where = (case["n"], case["family"], case["scale"])
            assert err <= bound, (where, err, bound)
            assert gap <= bound, (where, gap, bound)


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
            q = pair.vectors
            fwd = (q * np.exp(1j * eps * pair.values)) @ q.conj().T
            bwd = (q * np.exp(-1j * eps * pair.values)) @ q.conj().T
            f_plus = objective(UnitaryMatrix(fwd @ u.mat), v, prob)
            f_minus = objective(UnitaryMatrix(bwd @ u.mat), v, prob)
            fd = (f_plus - f_minus) / (2.0 * eps)
            inner = float(np.real(np.sum(np.conj(k) * k_u)))
            assert abs(fd - inner) <= 1e-4 * max(abs(inner), 1e-300)

    def test_gradient_unpacks_into_the_commutators(self):
        # The stacked [K_U; K_V] unpacks into [R, A] and [R, B], bit for bit
        # the per-factor commutators.
        x, y = random_hermitian(4, 31, 1.0), random_hermitian(4, 32, 1.0)
        prob = OrbitProblem.create(x, y, "spectral")
        u, v = random_unitary(4, 33), random_unitary(4, 34)
        k_u, k_v = riemannian_grad(u, v, prob)
        a = u.mat @ x.mat @ u.mat.conj().T
        b = v.mat @ y.mat @ v.mat.conj().T
        r = a + b - prob.z.mat
        assert np.array_equal(k_u, r @ a - a @ r)
        assert np.array_equal(k_v, r @ b - b @ r)

    @pytest.mark.parametrize("entry", ["objective", "riemannian_grad", "verify_membership"])
    def test_factor_of_another_dimension_raises(self, entry):
        prob = OrbitProblem.create(random_hermitian(3, 41), random_hermitian(3, 42), "exp_product")
        other = random_unitary(4, 1)
        if entry == "verify_membership":
            sol = solve(OrbitProblem.create(random_hermitian(4, 43), random_hermitian(4, 44),
                                            "exp_product"))
            with pytest.raises(DimensionMismatch):
                verify_membership(sol, prob)
            return
        call = objective if entry == "objective" else riemannian_grad
        for u, v in ((other, other), (other, random_unitary(3, 2)), (random_unitary(3, 2), other)):
            with pytest.raises(DimensionMismatch):
                call(u, v, prob)


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
    def test_slow_descent_instance_converges_by_gauss_newton(self, realization):
        # Slow for first-order steps: Armijo descent alone took 1273
        # iterations here, f falling by under 2% an iteration after the
        # first 50.  Gauss-Newton takes 3.
        x = random_real_symmetric_traceless(3, 100310)
        y = random_real_symmetric_traceless(3, 100311)
        prob = OrbitProblem.create(x, y, "geometric")
        sol = solve(prob, seed=100307, realization=realization)
        assert sol.residual <= 1e-8
        assert sol.iterations <= 20
        assert sol.stop_reason == "converged"
        assert sol.gauss_newton_steps >= 1
        assert verify_membership(sol, prob)

    @pytest.mark.parametrize("realization", ["glc", "slr"])
    @pytest.mark.parametrize("arm", ["straight", "folded", "scalar"])
    def test_two_by_two_arm_boundary_from_identity(self, realization, arm):
        # X = diag(a, -a), Y = Q diag(b, -b) Q* and Z on the boundary of the
        # orbit sum: the arms of lengths a and b aligned (straight), opposed
        # (folded), or opposed and equal (scalar Z = 0).  The identity start
        # reaches each of them without a restart.
        space = REALIZATIONS[realization]
        for seed in range(40):
            a, b = np.random.default_rng(seed).uniform(0.1, 2.0, 2)
            if arm == "scalar":
                b = a
            c = {"straight": a + b, "folded": abs(a - b), "scalar": 0.0}[arm]
            q = space.random_factor(2, seed)
            prob = OrbitProblem(
                x=diag_h(a, -a),
                y=HermitianMatrix((q * [b, -b]) @ q.conj().T),
                kind="exp_product",
                z=diag_h(c, -c),
            )
            sol = solve(prob, seed=seed, realization=realization)
            assert sol.converged
            assert sol.restarts == 0
            assert verify_membership(sol, prob)

    @pytest.mark.parametrize(
        "realization,n,kind,seed",
        [("glc", 3, "spectral", 141021), ("glc", 6, "geometric", 212014),
         ("slr", 4, "spectral", 333014)],
    )
    def test_shared_spectrum_stress_cases_converge(self, realization, n, kind, seed):
        # Scale-3 shared-spectrum cases of the stress set
        # (tests/orbit_stress_set.py).  The first two stalled at residuals
        # of 1e-8 to 2e-8 with the eigendecomposition target, whose trace
        # gap was 6e-8: five starts of about 80 iterations, most of them
        # descent steps.  Each now takes a few Gauss-Newton steps from the
        # identity.
        prob = OrbitProblem.create(
            *stress_inputs(realization, n, "shared_spectrum", 3.0, seed), kind
        )
        sol = solve(prob, seed=seed, realization=realization)
        assert sol.converged
        assert sol.restarts == 0
        assert sol.iterations <= 8
        assert verify_membership(sol, prob)

    @pytest.mark.parametrize("realization", ["glc", "slr"])
    def test_iterates_stay_in_the_realization_dtype(self, realization):
        # slr iterates in float64, restarts included (the stalled-start
        # problem below restarts once), so a slide back to complex
        # arithmetic fails here.
        dtype = {"glc": np.complex128, "slr": np.float64}[realization]
        problems = [
            OrbitProblem(x=diag_h(2.0, 1.0, 0.0), y=diag_h(1.0, 0.0, 0.0),
                         kind="exp_product", z=diag_h(1.0, 1.0, 2.0)),
            OrbitProblem.create(random_real_symmetric_traceless(4, 61),
                                random_real_symmetric_traceless(4, 62), "spectral"),
        ]
        for prob in problems:
            seen = []
            sol = solve(prob, seed=3, realization=realization,
                        on_iterate=lambda u, v, f: seen.append((u.dtype, v.dtype)))
            assert len(seen) == sol.iterations + sol.restarts + 1
            assert all(pair == (dtype, dtype) for pair in seen)
            assert sol.u.mat.dtype == sol.v.mat.dtype == np.complex128

    @pytest.mark.parametrize("realization", ["glc", "slr"])
    def test_stalled_start_restarts(self, realization):
        # Z = P X P* + Y for the reversal P.  At the identity start every
        # matrix is diagonal, so the gradient and the Gauss-Newton direction
        # are exactly zero with f > 0: start 0 stalls, and a seeded random
        # start converges.
        x = diag_h(2.0, 1.0, 0.0)
        y = diag_h(1.0, 0.0, 0.0)
        prob = OrbitProblem(x=x, y=y, kind="exp_product", z=diag_h(1.0, 1.0, 2.0))
        sol = solve(prob, seed=3, realization=realization)
        assert sol.restarts >= 1
        assert sol.stop_reason == "converged"
        assert sol.residual <= 1e-8
        assert verify_membership(sol, prob)

    @pytest.mark.parametrize("realization,n,seed", [("slr", 3, 20), ("glc", 4, 12)])
    def test_failed_search_mid_run_recovers_by_restart(self, realization, n, seed):
        # Z = diag(lambda_down(X) + lambda_up(Y)) lies on the boundary of the
        # orbit sum.  Start 0 takes Gauss-Newton steps until its search finds
        # no decrease, and the seeded restart converges.
        space = REALIZATIONS[realization]
        x = space.sample(n, 900000 + 10 * seed + n)
        y = space.sample(n, 900001 + 10 * seed + n)
        lam = eig_hermitian(x).values + eig_hermitian(y).values[::-1]
        prob = OrbitProblem(x=x, y=y, kind="exp_product", z=diag_h(*lam))
        sol = solve(prob, seed=seed, realization=realization)
        assert sol.converged
        assert sol.restarts == 1
        assert verify_membership(sol, prob)

    @pytest.mark.parametrize("realization", ["glc", "slr"])
    def test_debug_log_names_stops_and_restarts(self, caplog, realization):
        # The stalled-start problem above: start 0 stops by stall, a restart
        # follows, and nothing is logged at the default level.
        prob = OrbitProblem(
            x=diag_h(2.0, 1.0, 0.0), y=diag_h(1.0, 0.0, 0.0),
            kind="exp_product", z=diag_h(1.0, 1.0, 2.0),
        )
        solve(prob, seed=3, realization=realization)
        assert not caplog.records
        caplog.set_level(logging.DEBUG, logger="spdmeans.orbit")
        sol = solve(prob, seed=3, realization=realization)
        messages = [rec.getMessage() for rec in caplog.records]
        assert all(rec.name == "spdmeans.orbit" for rec in caplog.records)
        assert messages[0].startswith("start 0 stopped (stall) at f ")
        assert messages[1].startswith("restart 1 from f ")
        assert len(messages) == 2 * sol.restarts

    def test_debug_log_names_budget_stop(self, caplog):
        caplog.set_level(logging.DEBUG, logger="spdmeans.orbit")
        x, y = random_hermitian(4, 51, 1.0), random_hermitian(4, 52, 1.0)
        with pytest.raises(MaxIterReached):
            solve(OrbitProblem.create(x, y, "spectral"), max_iter=1, tol=1e-14)
        (message,) = [rec.getMessage() for rec in caplog.records]
        assert message.startswith("start 0 stopped (budget) at f ")
        assert message.endswith("after 1 iterations")

    def test_bad_params(self):
        x = random_hermitian(2, 1, 1.0)
        prob = OrbitProblem.create(x, x, "exp_product")
        with pytest.raises(ParamOutOfRange):
            solve(prob, realization="su2")
        with pytest.raises(ParamOutOfRange):
            solve(prob, tol=0.0)
        with pytest.raises(ParamOutOfRange):
            solve(prob, max_iter=-1)


class TestVerifyMembership:
    def test_returned_solution_verifies(self):
        x = random_hermitian(3, 61, 1.0)
        y = random_hermitian(3, 62, 1.0)
        prob = OrbitProblem.create(x, y, "exp_product")
        sol = solve(prob)
        assert verify_membership(sol, prob)

    @pytest.mark.parametrize("factor", ["u", "v"])
    def test_perturbed_factor_fails(self, factor):
        x = random_hermitian(3, 71, 1.0)
        y = random_hermitian(3, 72, 1.0)
        prob = OrbitProblem.create(x, y, "exp_product")
        sol = solve(prob)
        bad = UnitaryMatrix.__new__(UnitaryMatrix)
        bad.mat = getattr(sol, factor).mat.copy()
        bad.mat[0, 0] += 1e-3
        fake = dataclasses.replace(sol, **{factor: bad})
        assert not verify_membership(fake, prob)


def _orthonormal_basis_of_k(n, realify):
    """Reference: an orthonormal (Frobenius) basis of so(n), or of u(n) when
    not realify, built element by element."""
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[i, j] = 1.0
            s[j, i] = -1.0
            basis.append(s / np.sqrt(2.0))
    if not realify:
        for i in range(n):
            for j in range(i + 1, n):
                s = np.zeros((n, n), dtype=complex)
                s[i, j] = 1.0j
                s[j, i] = 1.0j
                basis.append(s / np.sqrt(2.0))
        for i in range(n):
            s = np.zeros((n, n), dtype=complex)
            s[i, i] = 1.0j
            basis.append(s)
    return np.stack(basis)


def _random_linearization(n, realization, seed, kind="exp_product"):
    """A, B and R = A + B - Z at random factors of the realization's K."""
    realify = realization == "slr"
    sample = random_real_symmetric_traceless if realify else random_hermitian
    factor = random_orthogonal if realify else random_unitary
    x, y = sample(n, seed), sample(n, seed + 1)
    prob = OrbitProblem.create(x, y, kind)
    u, v = factor(n, seed + 2).mat, factor(n, seed + 3).mat
    a = u @ x.mat @ u.conj().T
    b = v @ y.mat @ v.conj().T
    return a, b, a + b - prob.z.mat


def _least_squares_direction(a, b, r, basis):
    """Reference: the minimum-norm least-squares (S_u, S_v) of
    [S_u, A] + [S_v, B] = -R over the given basis of k, by lstsq."""
    m = basis.shape[0]
    comm = np.concatenate([basis @ a - a @ basis, basis @ b - b @ basis])
    comm = comm.reshape(2 * m, -1)
    jac = np.concatenate([comm.real, comm.imag], axis=1).T
    rhs = -np.concatenate([r.real.ravel(), r.imag.ravel()])
    theta, *_ = np.linalg.lstsq(jac, rhs, rcond=1e-10)
    return np.tensordot(theta[:m], basis, axes=1), np.tensordot(theta[m:], basis, axes=1)


class TestGaussNewtonJacobian:
    @pytest.mark.parametrize("realization", ["glc", "slr"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_batched_matches_loop(self, n, realization):
        # Column (i, j) of the operator is Y -> [[Y,A],A] + [[Y,B],B] applied
        # to the elementary matrix E_ij, in row-major vec form.
        for trial in range(3):
            a, b, _ = _random_linearization(n, realization, 9000 + 10 * n + trial)
            want = np.zeros((n * n, n * n), dtype=complex)
            for i in range(n):
                for j in range(n):
                    e = np.zeros((n, n), dtype=complex)
                    e[i, j] = 1.0
                    ca, cb = e @ a - a @ e, e @ b - b @ e
                    col = ca @ a - a @ ca + cb @ b - b @ cb
                    want[:, i * n + j] = col.ravel()
            got = orbit._gauss_newton_operator(a, b)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("realization", ["glc", "slr"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_direction_is_skew(self, n, realization):
        for trial in range(3):
            a, b, r = _random_linearization(n, realization, 9200 + 10 * n + trial)
            for s in _gauss_newton_direction(np.array([a, b]), r):
                assert np.abs(s + s.conj().T).max() <= 1e-13 * np.abs(s).max()
                if realization == "slr":
                    assert not s.imag.any()

    @pytest.mark.parametrize("realization", ["glc", "slr"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_direction_is_minimum_norm_least_squares(self, n, realization):
        # The ridge shrinks the minimum-norm solution by a relative
        # mu / sigma^2 along each singular direction of J: at most 4.6e-10
        # at these inputs (glc, n = 3).  A trace gap in R (here 1e-3 I) is
        # out of J's range and must not reach the step.
        basis = _orthonormal_basis_of_k(n, realization == "slr")
        for trial, kind in enumerate(("exp_product", "geometric", "spectral")):
            a, b, r = _random_linearization(n, realization, 9400 + 10 * n + trial, kind)
            want = _least_squares_direction(a, b, r, basis)
            scale = max(np.abs(w).max() for w in want)
            for gap in (0.0, 1e-3):
                got = _gauss_newton_direction(np.array([a, b]), r + gap * np.eye(n))
                for g, w in zip(got, want):
                    assert np.abs(g - w).max() <= 1e-9 * scale

    @pytest.mark.parametrize("realization", ["glc", "slr"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_linearized_residual_near_least_squares(self, n, realization):
        # The ridge shrinks J's small singular directions, so the damped
        # direction leaves a larger linearized residual than the minimum
        # norm least-squares one: at most 2.6e-10 |R| more, measured at
        # random factors over n 2..8 and the three target kinds.
        basis = _orthonormal_basis_of_k(n, realization == "slr")

        def linearized(s_u, s_v, a, b, r):
            return np.linalg.norm(s_u @ a - a @ s_u + s_v @ b - b @ s_v + r)

        for trial, kind in enumerate(("exp_product", "geometric", "spectral")):
            a, b, r = _random_linearization(n, realization, 9500 + 10 * n + trial, kind)
            best = linearized(*_least_squares_direction(a, b, r, basis), a, b, r)
            got = linearized(*_gauss_newton_direction(np.array([a, b]), r), a, b, r)
            assert got <= best + 1e-9 * np.linalg.norm(r)

    @pytest.mark.parametrize("realization,n", [("glc", 1), ("glc", 3), ("slr", 1), ("slr", 3)])
    def test_zero_jacobian_gives_zero_direction(self, realization, n):
        # Scalar A and B commute with every matrix, so the operator is zero:
        # no system to solve, and no warning.  The zero comes back in the
        # realization's dtype, as every other direction does.
        dtype = REALIZATIONS[realization].dtype
        a = 2.0 * np.eye(n, dtype=dtype)
        b = -0.5 * np.eye(n, dtype=dtype)
        r = random_real_symmetric_traceless(n, 17).mat.real.astype(dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s_u, s_v = _gauss_newton_direction(np.array([a, b]), r)
        assert s_u.shape == s_v.shape == (n, n)
        assert s_u.dtype == s_v.dtype == dtype
        assert not s_u.any() and not s_v.any()


class TestStackedFactorPair:
    """The solver carries W = [U; V] as one (2, n, n) array; each stacked
    product gets the bits of the per-factor products it stands for."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("realization", ["glc", "slr"])
    def test_conjugates_match_the_per_factor_products(self, realization, n):
        space = REALIZATIONS[realization]
        u, v = space.random_factor(n, 10 * n), space.random_factor(n, 10 * n + 1)
        mats = [space.sample(n, 10 * n + k, 1.0).mat for k in (2, 3, 4)]
        x, y, z = (m.real if realization == "slr" else m for m in mats)
        ab, r = _conjugates(np.array([u, v]), np.array([x, y]), z)
        a, b = u @ x @ u.conj().T, v @ y @ v.conj().T
        assert ab.dtype == space.dtype
        assert np.array_equal(ab[0], a) and np.array_equal(ab[1], b)
        assert np.array_equal(r, a + b - z)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("realization", ["glc", "slr"])
    def test_stacked_retraction_matches_the_per_factor_products(self, realization, n):
        space = REALIZATIONS[realization]
        w = np.array([space.random_factor(n, 20 * n), space.random_factor(n, 20 * n + 1)])
        g = np.random.default_rng(n).standard_normal((2, n, n)).astype(space.dtype)
        if realization == "glc":
            g = g + 1j * np.random.default_rng(n + 100).standard_normal((2, n, n))
        s = (g - g.conj().swapaxes(1, 2)) / 2.0
        for damp in (1.0, 2.0 ** -9):
            e = orbit._cayley(s, -damp)
            got = e @ w
            assert got.dtype == space.dtype
            assert np.array_equal(got[0], e[0] @ w[0]) and np.array_equal(got[1], e[1] @ w[1])


def _exp_neg(k, scale):
    """Reference: exp(-scale K) for skew-Hermitian K, or each matrix of a
    stack, from eigh of -iK."""
    lam, q = np.linalg.eigh(-1j * k)
    return (q * np.exp(-1j * scale * lam)[..., None, :]) @ q.conj().swapaxes(-1, -2)


class TestCayleyRetraction:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_glc_trial_factor_is_unitary_over_six_decades_of_scale(self, n):
        # Unitary at every scale 1e-3..1e3 along the gradient, a range that
        # holds the Gauss-Newton search's dampings 1..2^-9 with room on both
        # sides.
        for trial, kind in enumerate(("exp_product", "geometric", "spectral")):
            base = 9600 + 10 * n + trial
            prob = OrbitProblem.create(
                random_hermitian(n, base, 1.0), random_hermitian(n, base + 1, 1.0), kind
            )
            u, v = random_unitary(n, base + 2), random_unitary(n, base + 3)
            k = np.stack(riemannian_grad(u, v, prob))
            for scale in 10.0 ** np.arange(-3, 4):
                for w in orbit._cayley(k, scale):
                    assert np.abs(w.conj().T @ w - np.eye(n)).max() <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_slr_trial_factor_is_real_with_unit_determinant(self, n):
        a, b, r = (m.real for m in _random_linearization(n, "slr", 9700 + n))
        s = _gauss_newton_direction(np.array([a, b]), r)
        for damp in (1.0, 0.5, 2.0 ** -9):
            e = orbit._cayley(s, -damp)
            assert e.dtype == np.float64
            for w in e:
                assert np.abs(w.T @ w - np.eye(n)).max() <= 1e-13
                assert abs(np.linalg.det(w) - 1.0) <= 1e-13

    def test_agrees_with_the_exponential_to_second_order(self):
        # Cayley(s K) - exp(-s K) = s^3 K^3 / 12 + O(s^4): halving s divides
        # the gap by about 8.  A wrong sign would leave an O(s) gap.
        g = np.random.default_rng(3).standard_normal((2, 4, 4, 2)) @ [1.0, 1.0j]
        k = (g - g.conj().swapaxes(1, 2)) / 2.0
        gaps = [np.abs(orbit._cayley(k, s) - _exp_neg(k, s)).max() for s in (1e-2, 5e-3)]
        assert 7.0 <= gaps[0] / gaps[1] <= 9.0
        norm = np.linalg.norm(k, 2, axis=(1, 2)).max()
        assert gaps[0] <= (1e-2 * norm) ** 3 / 12.0
