import numpy as np
import pytest

from spdmeans import linalg
from spdmeans import (
    ComplexMatrix,
    DomainError,
    HermitianMatrix,
    NoConvergence,
    SingularInput,
    SpdMatrix,
    UnitaryMatrix,
    eig_hermitian,
    mat_exp,
    mat_log,
    mat_pow,
    mat_sqrt,
    polar,
    random_hermitian,
    random_invertible,
    random_spd,
    spectrum,
)


def _lapack_failure(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


def rand_hermitian_array(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


class TestTypes:
    def test_complex_matrix_rejects_non_square(self):
        with pytest.raises(DomainError):
            ComplexMatrix(np.zeros((2, 3)))

    def test_complex_matrix_rejects_non_finite(self):
        with pytest.raises(DomainError):
            ComplexMatrix([[1.0, np.nan], [0.0, 1.0]])

    def test_hermitian_symmetrizes_small_defect(self):
        m = np.array([[1.0, 0.5 + 1e-12], [0.5, 2.0]], dtype=complex)
        h = HermitianMatrix(m)
        assert np.abs(h.mat - h.mat.conj().T).max() == 0.0

    def test_hermitian_rejects_large_defect(self):
        with pytest.raises(DomainError):
            HermitianMatrix([[1.0, 1.0], [0.0, 1.0]])

    def test_spd_rejects_indefinite(self):
        with pytest.raises(DomainError):
            SpdMatrix(np.diag([1.0, -1.0]))

    def test_spd_rejects_semidefinite(self):
        with pytest.raises(DomainError):
            SpdMatrix(np.diag([1.0, 0.0]))

    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(DomainError):
            UnitaryMatrix(np.diag([1.0, 2.0]))

    def test_matrices_are_read_only(self):
        h = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            h.mat[0, 0] = 5.0


class TestEigHermitian:
    def test_identity(self):
        pair = eig_hermitian(HermitianMatrix(np.eye(3)))
        assert np.array_equal(pair.values, np.ones(3))
        assert np.array_equal(pair.vectors, np.eye(3))

    def test_diagonal_sorted_descending(self):
        pair = eig_hermitian(HermitianMatrix(np.diag([1.0, 16.0])))
        assert np.array_equal(pair.values, [16.0, 1.0])

    def test_seeded_5x5_reconstruction(self):
        h = HermitianMatrix(rand_hermitian_array(5, 7))
        pair = eig_hermitian(h)
        q = pair.vectors
        res = np.abs((q * pair.values) @ q.conj().T - h.mat).max()
        assert res <= 1e-12 * np.abs(h.mat).max()

    def test_reconstruction_1000_seeded_trials(self):
        # n cycles through 1..12; the stated repo-wide bound.
        worst = 0.0
        for trial in range(1000):
            n = 1 + trial % 12
            h = HermitianMatrix(rand_hermitian_array(n, 10_000 + trial))
            pair = eig_hermitian(h)
            scale = max(np.abs(h.mat).max(), 1e-300)
            q = pair.vectors
            worst = max(worst, np.abs((q * pair.values) @ q.conj().T - h.mat).max() / scale)
        assert worst <= 1e-12

    def test_deterministic_for_identical_inputs(self):
        arr = rand_hermitian_array(6, 3)
        p1 = eig_hermitian(HermitianMatrix(arr))
        p2 = eig_hermitian(HermitianMatrix(arr.copy()))
        assert np.array_equal(p1.values, p2.values)
        assert np.array_equal(p1.vectors, p2.vectors)

    def test_no_convergence_signals(self, monkeypatch):
        monkeypatch.setattr(linalg.np.linalg, "eigh", _lapack_failure)
        h = HermitianMatrix(rand_hermitian_array(4, 1))
        with pytest.raises(NoConvergence):
            eig_hermitian(h)

    def test_stacked_no_convergence_signals(self, monkeypatch):
        monkeypatch.setattr(linalg.np.linalg, "eigh", _lapack_failure)
        monkeypatch.setattr(linalg.np.linalg, "eigvalsh", _lapack_failure)
        stack = np.stack([rand_hermitian_array(4, seed) for seed in range(3)])
        with pytest.raises(NoConvergence):
            linalg.eigh_stack(stack)
        with pytest.raises(NoConvergence):
            linalg.eigh_stack(stack, vectors=False)

    def test_stack_matches_single_decompositions(self):
        mats = [rand_hermitian_array(5, seed) for seed in range(6)]
        # Members with repeated eigenvalues, whose ties keep LAPACK's order.
        mats[2] = np.diag([1.0, 3.0, 1.0, 3.0, 2.0]).astype(complex)
        mats[4] = np.eye(5, dtype=complex)
        stack = np.stack(mats)
        vals, q = linalg.eigh_stack(stack.reshape(2, 3, 5, 5))
        for k, m in enumerate(stack):
            pair = eig_hermitian(HermitianMatrix(m))
            assert np.array_equal(vals.reshape(6, 5)[k], pair.values)
            assert np.array_equal(q.reshape(6, 5, 5)[k], pair.vectors)
        only = linalg.eigh_stack(stack, vectors=False)
        assert np.abs(only - vals.reshape(6, 5)).max() <= 1e-12 * np.abs(only).max()

    def test_pair_matches_single_decompositions_and_caches(self):
        a = HermitianMatrix(rand_hermitian_array(5, 11))
        b = HermitianMatrix(rand_hermitian_array(5, 12))
        pa, pb = linalg.eig_hermitian_pair(a, b)
        assert a._eig is pa and b._eig is pb
        assert linalg.eig_hermitian_pair(a, b) == (pa, pb)
        for m, pair in ((a, pa), (b, pb)):
            alone = eig_hermitian(HermitianMatrix(m.mat))
            assert np.array_equal(pair.values, alone.values)
            assert np.array_equal(pair.vectors, alone.vectors)
        # With one side cached, the other is decomposed alone.
        c = HermitianMatrix(rand_hermitian_array(5, 13))
        pa2, pc = linalg.eig_hermitian_pair(a, c)
        assert pa2 is pa and c._eig is pc

    def test_canonical_phase(self):
        q = eig_hermitian(HermitianMatrix(rand_hermitian_array(6, 8))).vectors
        top = q[np.abs(q).argmax(axis=0), np.arange(6)]
        assert np.all(top.imag == 0.0) and np.all(top.real > 0.0)
        g = np.random.default_rng(9).standard_normal((6, 6))
        q = eig_hermitian(HermitianMatrix(g + g.T)).vectors
        assert np.abs(q.imag).max() == 0.0

    def test_values_and_vectors_are_read_only_arrays(self):
        # A decomposition from every builder: eigh, the stacked pair, and
        # the seeded caches of random_spd, mat_exp and polar's factor.
        h = HermitianMatrix(rand_hermitian_array(4, 3))
        g = HermitianMatrix(rand_hermitian_array(4, 4))
        pairs = [
            eig_hermitian(HermitianMatrix(rand_hermitian_array(4, 2))),
            *linalg.eig_hermitian_pair(h, g),
            eig_hermitian(random_spd(4, 5)),
            eig_hermitian(mat_exp(h)),
            eig_hermitian(polar(random_invertible(4, 6))[1]),
        ]
        for pair in pairs:
            for arr in (pair.values, pair.vectors):
                assert type(arr) is np.ndarray
                with pytest.raises(ValueError):
                    arr[0, ...] = 0.0

    def test_vector_columns_orthonormal(self):
        h = HermitianMatrix(rand_hermitian_array(9, 5))
        q = eig_hermitian(h).vectors
        assert np.abs(q.conj().T @ q - np.eye(9)).max() < 1e-12


class TestMatFn:
    def test_exp_zero_is_identity(self):
        for n in (1, 3, 6):
            e = mat_exp(HermitianMatrix(np.zeros((n, n))))
            assert np.abs(e.mat - np.eye(n)).max() < 1e-15

    def test_pow_diagonal(self):
        s = mat_pow(SpdMatrix(np.diag([4.0, 9.0])), 0.5)
        assert np.abs(s.mat - np.diag([2.0, 3.0])).max() < 1e-14

    def test_log_exp_roundtrip(self):
        x = HermitianMatrix(rand_hermitian_array(5, 11))
        back = mat_log(mat_exp(x))
        assert np.abs(back.mat - x.mat).max() <= 1e-12

    @pytest.mark.parametrize("t", [1.0 / 3.0, 0.5, 2.0])
    def test_pow_inverse_pair(self, t):
        s = random_spd(5, 21)
        back = mat_pow(mat_pow(s, t), 1.0 / t)
        assert np.abs(back.mat - s.mat).max() <= 1e-11 * np.abs(s.mat).max()

    def test_log_requires_spd(self):
        with pytest.raises(DomainError):
            mat_log(HermitianMatrix(np.diag([1.0, -1.0])))

    def test_sqrt_requires_spd(self):
        with pytest.raises(DomainError):
            mat_sqrt(HermitianMatrix(np.diag([1.0, -1.0])))

    def test_fractional_pow_requires_spd(self):
        with pytest.raises(DomainError):
            mat_pow(HermitianMatrix(np.diag([1.0, -1.0])), 0.5)

    def test_integer_pow_on_hermitian(self):
        h = HermitianMatrix(np.diag([2.0, -3.0]))
        sq = mat_pow(h, 2)
        assert np.abs(sq.mat - np.diag([4.0, 9.0])).max() < 1e-14

    def test_numerically_indefinite_spd_pow(self):
        # A trusted product that came out indefinite: its fractional powers
        # and its log would be NaN and raise; its integer powers are finite.
        m = SpdMatrix._wrap(np.diag([2.0, -1e-9]))
        with pytest.raises(DomainError, match="not positive definite"):
            mat_pow(m, 0.5)
        with pytest.raises(DomainError, match="not positive definite"):
            mat_log(m)
        for t in (1, 2):
            assert np.all(np.isfinite(mat_pow(m, t).mat))

    def test_sqrt_is_the_half_power(self):
        s = random_spd(3, 5)
        root = mat_sqrt(s)
        assert np.allclose(root.mat, mat_pow(s, 0.5).mat)
        assert np.allclose(root.mat @ root.mat, s.mat)
        quarter = mat_pow(s, 0.25)
        assert np.allclose(quarter.mat @ quarter.mat, root.mat)
        with pytest.raises(DomainError):
            mat_sqrt(HermitianMatrix(np.diag([1.0, 2.0])))

    def test_exp_out_of_float_range_raises(self):
        # e^800 overflows and e^-800 underflows to 0; neither is returned.
        h = HermitianMatrix(np.diag([800.0, 0.0]))
        for scale in (1.0, -1.0):
            with pytest.raises(DomainError, match="float range"):
                mat_exp(h, scale)

    def test_exp_returns_spd_log_returns_hermitian(self):
        x = HermitianMatrix(rand_hermitian_array(4, 2))
        e = mat_exp(x)
        assert isinstance(e, SpdMatrix)
        assert isinstance(mat_log(e), HermitianMatrix)


class TestPolar:
    def test_unitary_input(self):
        from spdmeans import random_unitary

        u0 = random_unitary(4, 9)
        u, p = polar(ComplexMatrix(u0.mat), side="right")
        assert np.abs(u.mat - u0.mat).max() < 1e-12
        assert np.abs(p.mat - np.eye(4)).max() < 1e-12

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_spd_diagonal(self, side):
        m = ComplexMatrix(np.diag([2.0, 3.0]))
        u, p = polar(m, side=side)
        assert np.abs(u.mat - np.eye(2)).max() < 1e-13
        assert np.abs(p.mat - np.diag([2.0, 3.0])).max() < 1e-13

    def test_defining_products(self):
        for seed in range(20):
            m = random_invertible(4, 400 + seed)
            u, p = polar(m, side="right")
            scale = np.abs(m.mat).max()
            assert np.abs(u.mat @ p.mat - m.mat).max() <= 1e-12 * scale
            ul, pl = polar(m, side="left")
            assert np.abs(pl.mat @ ul.mat - m.mat).max() <= 1e-12 * scale

    def test_right_unitary_intertwines_grams(self):
        m = random_invertible(4, 17)
        u, _ = polar(m, side="right")
        lhs = u.mat @ (m.mat.conj().T @ m.mat) @ u.mat.conj().T
        rhs = m.mat @ m.mat.conj().T
        assert np.abs(lhs - rhs).max() <= 1e-11 * np.abs(rhs).max()

    def test_singular_input_rejected(self):
        with pytest.raises(SingularInput):
            polar(ComplexMatrix(np.diag([1.0, 0.0])))
        with pytest.raises(SingularInput):
            polar(ComplexMatrix(np.diag([1.0, 1e-13])))

    @pytest.mark.parametrize("cond", [1e8, 1e10, 1e11])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_ill_conditioned_reconstruction(self, cond, side):
        from spdmeans import random_unitary

        svals = np.logspace(0.0, -np.log10(cond), 5)
        w, v = random_unitary(5, 61).mat, random_unitary(5, 62).mat
        m = (w * svals) @ v.conj().T
        u, p = polar(ComplexMatrix(m), side=side)
        prod = u.mat @ p.mat if side == "right" else p.mat @ u.mat
        assert np.abs(prod - m).max() <= 1e-12 * np.abs(m).max()
        UnitaryMatrix(u.mat)

    def test_bad_side(self):
        with pytest.raises(DomainError):
            polar(ComplexMatrix(np.eye(2)), side="middle")


class TestRandomSpd:
    def test_out_of_range_draw_raises(self):
        # The drawn log-values span 28.1: condition number 1.58e12.
        with pytest.raises(DomainError, match="condition number"):
            random_spd(4, 1, 16.0)

    def test_returned_matrices_pass_the_guard(self):
        raised = 0
        for seed in range(40):
            try:
                m = random_spd(4, seed, 16.0)
            except DomainError:
                raised += 1
                continue
            SpdMatrix(m.mat)
        assert 0 < raised < 40


class TestSpectrum:
    def test_sort_rule_golden(self):
        vals = spectrum(ComplexMatrix(np.diag([1.0, -2.0, 3.0j])))
        assert np.allclose(vals, [3.0j, -2.0, 1.0])

    def test_hermitian_path_agrees_with_jacobi(self):
        arr = rand_hermitian_array(6, 23)
        vals = spectrum(ComplexMatrix(arr))
        ref = eig_hermitian(HermitianMatrix(arr)).values
        ref = ref[np.argsort(-np.abs(ref), kind="stable")]
        assert np.abs(vals - ref).max() < 1e-12
        assert np.abs(vals.imag).max() == 0.0

    def test_spd_product_positive_spectrum(self):
        a = random_spd(4, 31)
        b = random_spd(4, 32)
        vals = spectrum(ComplexMatrix(a.mat @ b.mat))
        assert np.abs(vals.imag).max() < 1e-10
        assert vals.real.min() > 0.0
        # Similarity oracle: same spectrum as the SPD matrix A^{1/2} B A^{1/2}.
        roota = mat_sqrt(a).mat
        sym = SpdMatrix(roota @ b.mat @ roota)
        ref = eig_hermitian(sym).values
        assert np.abs(np.sort(vals.real) - np.sort(ref)).max() <= 1e-10 * ref.max()

    def test_general_matrix_against_numpy(self):
        for seed in range(10):
            m = random_invertible(5, 900 + seed)
            vals = spectrum(m)
            ref = np.linalg.eigvals(m.mat)
            ref = ref[np.lexsort((np.angle(ref), -np.abs(ref)))]
            assert np.abs(vals - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_unitary_spectrum_unit_moduli(self):
        from spdmeans import random_unitary

        u = random_unitary(5, 77)
        vals = spectrum(ComplexMatrix(u.mat))
        assert np.abs(np.abs(vals) - 1.0).max() < 1e-10

    def test_iteration_cap_signals(self, monkeypatch):
        monkeypatch.setattr(linalg.np.linalg, "eigvals", _lapack_failure)
        m = random_invertible(5, 3)
        with pytest.raises(NoConvergence):
            spectrum(m)
