import dataclasses

import numpy as np
import pytest

from spdmeans import (
    DomainError,
    HermitianMatrix,
    OrbitProblem,
    RealSymmetricTraceless,
    UnitaryMatrix,
    eig_hermitian,
    geometric_mean,
    mat_exp,
    orbit,
    project_to_realization,
    random_hermitian,
    random_orthogonal,
    random_real_symmetric_traceless,
    random_unitary,
    run_suites_on_realization,
    solve,
    spectral_mean,
    suites,
    verify_membership,
)
from spdmeans.means import spd_det
from spdmeans.realizations import REALIZATIONS


class TestProjection:
    def test_valid_input_unchanged(self):
        x = random_real_symmetric_traceless(4, 3)
        p = project_to_realization(x)
        assert np.abs(p.mat - x.mat).max() < 1e-14

    def test_identity_projects_to_zero(self):
        p = project_to_realization(HermitianMatrix(np.eye(3)))
        assert np.abs(p.mat).max() == 0.0

    def test_random_hermitian_lands_in_realization(self):
        x = random_hermitian(5, 9, 1.0)
        p = project_to_realization(x)
        assert np.abs(p.mat.imag).max() == 0.0
        assert np.abs(p.mat - p.mat.T).max() == 0.0
        assert abs(np.trace(p.mat)) < 1e-12

    def test_type_rejects_complex(self):
        with pytest.raises(DomainError):
            RealSymmetricTraceless([[0.0, 1.0j], [-1.0j, 0.0]])

    def test_type_rejects_trace(self):
        with pytest.raises(DomainError):
            RealSymmetricTraceless(np.eye(2))


class TestRealizationFacts:
    def test_det_exp_is_one_for_traceless(self):
        x = random_real_symmetric_traceless(4, 11)
        e = mat_exp(x)
        assert abs(spd_det(e) - 1.0) < 1e-10

    def test_means_of_unit_det_have_unit_det(self):
        a = mat_exp(random_real_symmetric_traceless(3, 21))
        b = mat_exp(random_real_symmetric_traceless(3, 22))
        for t in (0.25, 0.5, 0.75):
            assert abs(spd_det(geometric_mean(a, b, t)) - 1.0) < 1e-9
            assert abs(spd_det(spectral_mean(a, b, t)) - 1.0) < 1e-9


class TestRealOrbitSolve:
    @pytest.mark.parametrize("kind", ["exp_product", "geometric", "spectral"])
    def test_orthogonal_factors(self, kind):
        x = random_real_symmetric_traceless(3, 31)
        y = random_real_symmetric_traceless(3, 32)
        prob = OrbitProblem.create(x, y, kind)
        sol = solve(prob, seed=5, realization="slr")
        assert sol.residual <= 1e-8
        for w in (sol.u.mat, sol.v.mat):
            assert np.abs(w.imag).max() == 0.0
            assert np.abs(w.real.T @ w.real - np.eye(3)).max() <= 1e-10
            assert np.linalg.det(w.real) == pytest.approx(1.0, abs=1e-10)
        assert verify_membership(sol, prob)


def test_realization_suites_pass():
    rep = run_suites_on_realization(seed=7, n_values=(2, 3), trials=2)
    assert rep.passed, rep.failures


def test_realization_suite_checks_both_factors_in_so_n(monkeypatch):
    # -V leaves V Y V^T, the residual and the spectra unchanged, but at n = 3
    # det(-V) = -1, so -V is in O(3) and not in SO(3).
    real_solve = orbit.solve

    def solve_with_negated_v(*args, **kwargs):
        sol = real_solve(*args, **kwargs)
        return dataclasses.replace(sol, v=UnitaryMatrix(-sol.v.mat))

    monkeypatch.setattr(suites, "solve", solve_with_negated_v)
    rep = run_suites_on_realization(seed=7, n_values=(3,), trials=1)
    orbit_rows = [row for row in rep.rows if row.prop.startswith("orbit_")]
    assert len(orbit_rows) == 3
    assert not any(row.passed for row in orbit_rows)


class TestRealizationTable:
    def test_dtype_of_the_solver_arithmetic(self):
        # No map back into K: the solver iterates in this dtype, and the
        # Cayley transform keeps real iterates in SO(n) by itself.
        assert REALIZATIONS["glc"].dtype == np.complex128
        assert REALIZATIONS["slr"].dtype == np.float64

    @pytest.mark.parametrize("n", [2, 3])
    def test_contains(self, n):
        q = random_orthogonal(n, 4).mat
        u = random_unitary(n, 5).mat
        slr, glc = REALIZATIONS["slr"], REALIZATIONS["glc"]
        assert slr.contains(q) and glc.contains(q) and glc.contains(u)
        assert not slr.contains(u)
        # det(-Q) = (-1)^n det(Q).
        assert slr.contains(-q) is (n % 2 == 0)
        assert not glc.contains(2.0 * u)

    def test_real_sampler_and_projection(self):
        slr = REALIZATIONS["slr"]
        x = slr.sample(4, 3)
        assert np.array_equal(x.mat, random_real_symmetric_traceless(4, 3).mat)
        assert np.abs(slr.project(x).mat - x.mat).max() < 1e-14
        h = random_hermitian(3, 2, 1.0)
        assert REALIZATIONS["glc"].project(h) is h
