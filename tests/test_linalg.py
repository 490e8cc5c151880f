import warnings

import numpy as np
import pytest

from spdmeans import linalg, sampling
from spdmeans.means import _MeanPair
from spdmeans.realizations import REALIZATIONS
from spdmeans import (
    ComplexMatrix,
    DimensionMismatch,
    DomainError,
    HermitianMatrix,
    NoConvergence,
    OrbitProblem,
    ParamOutOfRange,
    SingularInput,
    SpdMatrix,
    UnitaryMatrix,
    build_target,
    eig_hermitian,
    geometric_mean,
    hyperbolic_spectrum,
    kostant_report,
    loewner_leq,
    mat_exp,
    mat_log,
    mat_pow,
    polar,
    random_hermitian,
    random_invertible,
    random_real_symmetric_traceless,
    random_spd,
    scan_chain,
    solve,
    spectrum,
    verify_membership,
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

    # Any memory layout of an input: a transposed or conjugate-transposed
    # view, or a Fortran-ordered copy, of a valid matrix.
    LAYOUTS = {
        "transposed": lambda arr: arr.T,
        "conjugate_transposed": lambda arr: arr.conj().T,
        "fortran": np.asfortranarray,
    }

    @staticmethod
    def _layout_inputs():
        return {
            ComplexMatrix: random_invertible(3, 4).mat,
            HermitianMatrix: random_hermitian(3, 6).mat,
            SpdMatrix: random_spd(3, 7).mat,
            UnitaryMatrix: sampling.random_unitary(3, 5).mat,
        }

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("cls", [ComplexMatrix, HermitianMatrix, SpdMatrix, UnitaryMatrix])
    def test_any_layout_is_accepted(self, cls, layout):
        arr = self.LAYOUTS[layout](self._layout_inputs()[cls])
        assert not arr.flags["C_CONTIGUOUS"]
        m = cls(arr)
        ref = cls(np.ascontiguousarray(arr))
        assert np.array_equal(m.mat, ref.mat)
        assert m.mat.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("cls", [ComplexMatrix, HermitianMatrix, SpdMatrix, UnitaryMatrix])
    def test_non_finite_is_a_domain_error_in_any_layout(self, cls, layout, bad):
        arr = self._layout_inputs()[cls].copy()
        arr[1, 1] = bad
        with pytest.raises(DomainError, match="entries must be finite"):
            cls(self.LAYOUTS[layout](arr))

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

    @pytest.mark.parametrize("cls", [HermitianMatrix, SpdMatrix])
    def test_no_convergence_signals(self, monkeypatch, cls):
        # The eigh runs when the matrix is made, so the constructor raises.
        monkeypatch.setattr(linalg.np.linalg, "eigh", _lapack_failure)
        with pytest.raises(NoConvergence):
            cls(np.eye(4) + 0.1 * rand_hermitian_array(4, 1))

    def test_stacked_no_convergence_signals(self, monkeypatch):
        monkeypatch.setattr(linalg.np.linalg, "eigh", _lapack_failure)
        stack = np.stack([rand_hermitian_array(4, seed) for seed in range(3)])
        with pytest.raises(NoConvergence):
            linalg.eigh_stack(stack)

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

    def test_canonical_phase(self):
        q = eig_hermitian(HermitianMatrix(rand_hermitian_array(6, 8))).vectors
        top = q[np.abs(q).argmax(axis=0), np.arange(6)]
        assert np.all(top.imag == 0.0) and np.all(top.real > 0.0)
        g = np.random.default_rng(9).standard_normal((6, 6))
        q = eig_hermitian(HermitianMatrix(g + g.T)).vectors
        assert np.abs(q.imag).max() == 0.0

    def test_values_and_vectors_are_read_only_arrays(self):
        # A decomposition from every builder: eigh, and the assembled
        # pairs of random_spd, mat_exp and polar's factor.
        h = HermitianMatrix(rand_hermitian_array(4, 3))
        pairs = [
            eig_hermitian(HermitianMatrix(rand_hermitian_array(4, 2))),
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
        # A positive definite HermitianMatrix that is not an SpdMatrix.
        with pytest.raises(DomainError, match="requires a positive definite"):
            mat_pow(HermitianMatrix(np.diag([1.0, 2.0])), 0.5)

    def test_fractional_pow_requires_spd(self):
        with pytest.raises(DomainError):
            mat_pow(HermitianMatrix(np.diag([1.0, -1.0])), 0.5)

    def test_integer_pow_on_hermitian(self):
        # Integer powers, too, take an SpdMatrix only: 1/0 and (1e200)^2
        # would be NaN and inf entries.
        for diag, t in (([2.0, -3.0], 2), ([1.0, 0.0], -1), ([1e200, 1.0], 2)):
            with pytest.raises(DomainError, match="requires a positive definite"):
                mat_pow(HermitianMatrix(np.diag(diag)), t)

    @pytest.mark.parametrize("expo", [0.5, 2.0, 0.3])
    def test_pow_gives_every_size_the_same_bits(self, expo):
        # numpy's power written over a one-element base takes a correctly
        # rounded path at 0.5 and 2, which differs from the vector loop.
        base = np.random.default_rng(7).uniform(0.1, 100.0, 1000)
        full = linalg._pow(base, expo)
        alone = [linalg._pow(base[k:k + 1], expo)[0] for k in range(len(base))]
        assert np.array_equal(alone, full)
        assert np.array_equal(linalg._pow(base[:, None], [expo, 1.0])[:, 0], full)

    def test_pow_past_the_float_range_raises_without_warning(self):
        # lambda^t overflows at |t| = 1000; the inf fails the SPD range, and
        # no RuntimeWarning comes first (warnings are errors here).
        s = random_spd(3, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1000.0, -1000.0):
                with pytest.raises(DomainError, match=r"eigenvalue range \[0\.000e\+00, inf\]"):
                    mat_pow(s, t)
        # Inside the float range the message is the values' range, as ever.
        with pytest.raises(DomainError, match=r"range \[9\.328e-104, 9\.674e\+86\]$"):
            mat_pow(s, 200.0)

    def test_sqrt_is_the_half_power(self):
        s = random_spd(3, 5)
        root = mat_pow(s, 0.5)
        assert np.allclose(root.mat @ root.mat, s.mat)
        quarter = mat_pow(s, 0.25)
        assert np.allclose(quarter.mat @ quarter.mat, root.mat)

    def test_exp_out_of_float_range_raises(self):
        # e^800 overflows and e^-800 underflows to 0; neither is returned.
        for sign in (1.0, -1.0):
            with pytest.raises(DomainError, match="float range: max \\|eig M\\|"):
                mat_exp(HermitianMatrix(np.diag([sign * 800.0, 0.0])))

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

    @pytest.mark.parametrize("n", [1, 4])
    def test_huge_spread_raises_without_warnings(self, n):
        # Seed 4 draws u = 762 at n = 1, whose e^u overflows to inf, and a
        # span of 1102 at n = 4.
        with pytest.raises(DomainError, match="condition number"):
            random_spd(n, 4, 800.0)

    def test_overflowing_assembly_raises_without_warnings(self):
        # Seed 302 draws u = 709.54 at n = 1: e^u is finite, so the draw
        # passes the SPD range and is assembled, and 2 e^u overflows in the
        # symmetrization, before the exponent bound rejects it.
        with pytest.raises(DomainError, match="exponents past the float range: max .u. = 709.5"):
            random_spd(1, 302, 712.0)

    def test_exponent_past_the_float_range_raises(self):
        # Seed 0 draws u = -734.4 at n = 1: e^u is the subnormal 1.09e-319,
        # a draw the ratio check passes and mat_exp's exponent bound rejects.
        with pytest.raises(DomainError, match="exponents past the float range: max .u. = 734"):
            random_spd(1, 0, 800.0)

    def test_messages_name_the_draw(self):
        # Both messages are built only on failure; each names the call.
        with pytest.raises(DomainError, match=r"^random_spd\(n=4, seed=1, spread=16.0\) drew a "
                           r"condition number not below 1e\+12: eigenvalues in \[\d"):
            random_spd(4, 1, 16.0)
        with pytest.raises(DomainError, match=r"^random_spd\(n=1, seed=0, spread=800.0\) drew "
                           r"exponents past the float range: max \|u\| = 734"):
            random_spd(1, 0, 800.0)

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


class TestSeededDraws:
    # The draws form only the polar unitary; each equals, bit for bit, the
    # one built through the full polar decomposition of the same Gaussian.
    @staticmethod
    def _reference(n, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return rng, polar(ComplexMatrix(g), side="right")[0]

    @pytest.mark.parametrize("n", range(1, 33))
    def test_random_unitary_and_spd_match_polar(self, n):
        from spdmeans import random_unitary

        seed = 900 + n
        assert np.array_equal(random_unitary(n, seed).mat, self._reference(n, seed)[1].mat)
        rng, u = self._reference(n, seed)
        vals = np.exp(rng.uniform(-2.0, 2.0, size=n))
        expected = SpdMatrix._from_eig(u.mat, vals)
        drawn = random_spd(n, seed, 2.0)
        assert np.array_equal(drawn.mat, expected.mat)
        assert np.array_equal(eig_hermitian(drawn).vectors, eig_hermitian(expected).vectors)
        assert np.array_equal(eig_hermitian(drawn).values, eig_hermitian(expected).values)

    @pytest.mark.parametrize("n", range(1, 33))
    @pytest.mark.parametrize(
        "sampler", ["random_hermitian", "random_real_symmetric_traceless", "random_spd"]
    )
    def test_draw_caches_the_pair_it_is_built_from(self, sampler, n):
        # The held pair is the drawn (Q, v), sorted descending, and it
        # reassembles the draw to rounding; the draw itself is the unstacked
        # assembly of (Q, v), bit for bit, as before the pair was kept (real
        # symmetric draws assembled in float64, then cast).
        seed = 700 + n
        real = sampler == "random_real_symmetric_traceless"
        rng, q = sampling._draw_factor(n, seed, real=real)
        q = q.real if real else q
        v = rng.uniform(-2.0, 2.0, size=n)
        v = v - v.mean() if real else np.exp(v) if sampler == "random_spd" else v
        drawn = getattr(sampling, sampler)(n, seed, 2.0)
        assert np.array_equal(drawn.mat, linalg._assemble(q, v).astype(complex))
        order = np.argsort(-v, kind="stable")
        pair = eig_hermitian(drawn)
        assert np.array_equal(pair.values, v[order])
        assert np.array_equal(pair.vectors, q[:, order])
        again = linalg._assemble(pair.vectors, pair.values)
        assert np.abs(again - drawn.mat).max() <= 1e-14 * max(1.0, np.abs(drawn.mat).max())


class TestFromEig:
    """``_from_eig`` builds one matrix unstacked and ``_from_eigs`` a stack;
    each matrix, its held pair and its check agree bit for bit."""

    @staticmethod
    def _inputs(m, n, real, values):
        rng = np.random.default_rng(100 * m + n + (7 if real else 0))
        g = rng.standard_normal((m, n, n)) if real else (
            rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n)))
        q = np.linalg.qr(g)[0]
        if values == "ties":
            vals = rng.choice([0.5, 1.0, 2.0], size=(m, n))
        elif values == "descending":
            vals = -np.sort(-rng.uniform(0.1, 3.0, size=(m, n)), axis=-1)
        else:
            vals = rng.uniform(0.1, 3.0, size=(m, n))
        return q, vals

    @pytest.mark.parametrize("values", ["ties", "descending", "shuffled"])
    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 20])
    @pytest.mark.parametrize("cls", [HermitianMatrix, SpdMatrix])
    def test_one_matrix_equals_its_stack_entry(self, cls, m, real, values):
        q, vals = self._inputs(m, 5, real, values)
        mats, stack, desc = cls._from_eigs(q, vals)
        assert not stack.flags.writeable and not desc.flags.writeable
        for k in range(m):
            one = cls._from_eig(q[k], vals[k])
            assert type(one) is type(mats[k]) is cls
            assert one.mat.dtype == mats[k].mat.dtype == complex
            assert np.array_equal(one.mat, mats[k].mat)
            assert np.array_equal(one.mat, stack[k])
            for got, want in zip(eig_hermitian(one), eig_hermitian(mats[k])):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
                assert got.flags["C_CONTIGUOUS"] and not got.flags.writeable
            assert np.array_equal(eig_hermitian(one).values, desc[k])
            order = np.argsort(-vals[k], kind="stable")
            assert np.array_equal(eig_hermitian(one).vectors, q[k][:, order])

    @pytest.mark.parametrize("m", [1, 2, 20])
    def test_check_runs_before_any_assembly(self, monkeypatch, m):
        # The caller's message and error class, raised before _assemble.
        q, vals = self._inputs(m, 4, False, "shuffled")
        vals[-1, 0] = 1e-13 * vals[-1].max()
        assembled = []
        original = linalg._assemble

        def spy(*args):
            assembled.append(args)
            return original(*args)

        monkeypatch.setattr(linalg, "_assemble", spy)
        with pytest.raises(SingularInput, match="^stack says"):
            SpdMatrix._from_eigs(q, vals, "stack says", SingularInput)
        with pytest.raises(SingularInput, match="^one says"):
            SpdMatrix._from_eig(q[-1], vals[-1], lambda k: "one says", SingularInput)
        with pytest.raises(DomainError, match="not positive definite"):
            SpdMatrix._from_eig(q[-1], vals[-1])
        assert assembled == []
        HermitianMatrix._from_eig(q[-1], vals[-1])
        assert len(assembled) == 1

    @pytest.mark.parametrize("n", range(1, 33))
    @pytest.mark.parametrize("real", [False, True])
    def test_draw_eigenbasis_is_unitary(self, n, real):
        # The polar factor of each draw is an unchecked array: it is unitary
        # to 1e-13, well inside UNITARY_TOL.
        for seed in (1, 2, 3):
            q = sampling._draw_factor(n, 1000 * n + seed, real=real)[1]
            assert isinstance(q, np.ndarray) and q.dtype == complex
            assert np.abs(q.conj().T @ q - np.eye(n)).max() <= 1e-13
            if real:
                assert not q.imag.any()

    def test_public_unitaries_are_validated(self, monkeypatch):
        from spdmeans import random_orthogonal, random_unitary, spectral_mean_unitary

        checked = []
        original = linalg.unitarity_error

        def spy(arr):
            checked.append(arr)
            return original(arr)

        monkeypatch.setattr(linalg, "unitarity_error", spy)
        a, b = random_spd(4, 11), random_spd(4, 12)
        results = [
            random_unitary(4, 1),
            random_orthogonal(4, 2),
            spectral_mean_unitary(a, b),
            polar(ComplexMatrix(a.mat @ b.mat))[0],
        ]
        for u in results:
            assert type(u) is UnitaryMatrix
            assert any(arr is u.mat for arr in checked)


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
        roota = mat_pow(a, 0.5).mat
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


def _wrap_producers() -> dict:
    """Every producer in the package that wraps an array with ``_wrap``, by
    name; each call runs the producer once on small inputs."""
    a, b = random_spd(4, 301), random_spd(4, 302)
    x, y = random_hermitian(4, 303), random_hermitian(4, 304)
    near = rand_hermitian_array(4, 305)
    near[0, 1] += 1e-13

    def membership():
        prob = OrbitProblem.create(random_hermitian(3, 306), random_hermitian(3, 307),
                                   "exp_product")
        assert verify_membership(solve(prob, seed=1), prob)

    def pow_hermitian():
        # An integer power of a Hermitian input raises; of its exponential, wraps.
        with pytest.raises(DomainError):
            mat_pow(x, 3)
        mat_pow(mat_exp(x), 3)

    return {
        "random_spd": lambda: random_spd(4, 308),
        "random_hermitian": lambda: random_hermitian(4, 309),
        "random_real_symmetric_traceless": lambda: random_real_symmetric_traceless(4, 310),
        "mat_exp": lambda: mat_exp(x),
        "mat_log": lambda: mat_log(a),
        "mat_pow_spd": lambda: mat_pow(a, 0.3),
        "mat_pow_hermitian": pow_hermitian,
        "sharp": lambda: _MeanPair(a, b).sharp(0.3),
        "natural": lambda: _MeanPair(a, b).natural(0.3),
        "cross": lambda: _MeanPair(a, b).cross(),
        "build_target_exp_product": lambda: build_target(x, y, "exp_product"),
        "build_target_geometric": lambda: build_target(x, y, "geometric"),
        "build_target_spectral": lambda: build_target(x, y, "spectral"),
        "slr_project": lambda: REALIZATIONS["slr"].project(HermitianMatrix(near)),
        "loewner_leq": lambda: loewner_leq(a, b),
        "scan_chain": lambda: scan_chain(x, y, [0.5]),
        "spectrum_near_hermitian": lambda: spectrum(ComplexMatrix(near)),
        "verify_membership": membership,
    }


class TestWrapPrecondition:
    """``HermitianMatrix._wrap`` wraps its array as it is, so every array a
    producer hands it must already be exactly Hermitian, entry for entry."""

    @pytest.mark.parametrize("name", list(_wrap_producers()))
    def test_wrapped_arrays_are_exactly_hermitian(self, name, monkeypatch):
        call = _wrap_producers()[name]
        wrapped = []
        wrap = HermitianMatrix._wrap.__func__

        def spy(cls, arr, pair=None):
            wrapped.append(arr)
            return wrap(cls, arr, pair)

        monkeypatch.setattr(HermitianMatrix, "_wrap", classmethod(spy))
        call()
        assert wrapped
        for arr in wrapped:
            assert np.array_equal(arr, arr.conj().T)
            assert not arr.flags.writeable

    def test_wrap_keeps_the_array(self):
        arr = rand_hermitian_array(3, 311)
        m = HermitianMatrix._wrap(arr)
        assert m.mat is arr and not arr.flags.writeable
        for got, want in zip(m._eig, linalg.eigh_stack(arr.copy())):
            assert np.array_equal(got, want)


def _made_matrices() -> dict:
    """One matrix from every way the package makes a ``HermitianMatrix`` or
    ``SpdMatrix``, by name; the first three decompose their array with
    ``eigh_stack``, the rest keep the pair they are assembled from."""
    q = sampling.random_unitary(4, 320).mat
    vals = np.array([3.0, 0.5, 2.0, 1.0])
    qs, stack_vals = np.array([q, q]), np.array([vals, 1.0 / vals])
    x, a = random_hermitian(4, 321), random_spd(4, 322)
    return {
        "HermitianMatrix": lambda: HermitianMatrix(rand_hermitian_array(4, 323)),
        "SpdMatrix": lambda: SpdMatrix(a.mat),
        "_wrap": lambda: HermitianMatrix._wrap(rand_hermitian_array(4, 324)),
        "_from_eig": lambda: SpdMatrix._from_eig(q, vals),
        "_from_eigs": lambda: SpdMatrix._from_eigs(qs, stack_vals)[0][1],
        "mat_exp": lambda: mat_exp(x),
        "mat_log": lambda: mat_log(a),
        "mat_pow": lambda: mat_pow(a, 0.3),
        "polar_factor": lambda: polar(random_invertible(4, 325))[1],
        "random_spd": lambda: random_spd(4, 326),
        "random_hermitian": lambda: random_hermitian(4, 327),
        "random_real_symmetric_traceless": lambda: random_real_symmetric_traceless(4, 328),
    }


class TestMadeWithRecord:
    """Every ``HermitianMatrix`` is made with its ``EigenPair``: two read-only
    arrays, descending values whose Q diag(values) Q* is the matrix, and
    ``eig_hermitian`` returns that record itself."""

    @pytest.mark.parametrize("name", list(_made_matrices()))
    def test_record_is_held_and_read_only(self, name):
        m = _made_matrices()[name]()
        pair = eig_hermitian(m)
        assert pair is m._eig
        for arr in pair:
            assert type(arr) is np.ndarray and not arr.flags.writeable
        assert np.all(np.diff(pair.values) <= 0.0)
        rebuilt = (pair.vectors * pair.values) @ pair.vectors.conj().T
        assert np.abs(rebuilt - m.mat).max() <= 1e-12 * max(1.0, np.abs(m.mat).max())
        if name in ("HermitianMatrix", "SpdMatrix", "_wrap"):
            for got, want in zip(pair, linalg.eigh_stack(m.mat)):
                assert np.array_equal(got, want)


class TestSamplerParams:
    """Every sampler rejects a dimension below 1, and the Hermitian samplers
    a spread or scale that is not positive or whose draw width overflows."""

    @pytest.mark.parametrize("name", [
        "random_unitary", "random_orthogonal", "random_spd", "random_hermitian",
        "random_real_symmetric_traceless", "random_invertible",
    ])
    def test_dimension_zero(self, name):
        with pytest.raises(ParamOutOfRange, match="dimension"):
            getattr(sampling, name)(0, 1)

    # inf and 1e308 are positive, but the width 2 * value of the uniform
    # draw on [-value, value] overflows.
    @pytest.mark.parametrize("value", [0.0, np.nan, np.inf, 1e308])
    @pytest.mark.parametrize("name, param", [
        ("random_spd", "spread"),
        ("random_hermitian", "scale"),
        ("random_real_symmetric_traceless", "scale"),
    ])
    def test_spread_and_scale_must_be_positive(self, name, param, value):
        with pytest.raises(ParamOutOfRange, match=param):
            getattr(sampling, name)(3, 1, value)

    @pytest.mark.filterwarnings("error")
    def test_traceless_scale_bounds_the_sum_of_the_draws(self):
        # 2 * scale is finite, but the sum of 8 draws in the mean can
        # overflow; n = 2 keeps the sum finite and is accepted.
        with pytest.raises(ParamOutOfRange, match="n \\* scale must be finite"):
            random_real_symmetric_traceless(8, 3, 8.9e307)
        assert np.isfinite(random_real_symmetric_traceless(2, 3, 8.9e307).mat).all()

    def test_invertible_draw_svd_failure_signals(self, monkeypatch):
        monkeypatch.setattr(linalg.np.linalg, "svd", _lapack_failure)
        with pytest.raises(NoConvergence):
            random_invertible(3, 1)


class TestRangePolicy:
    """Each range decision is one ``linalg`` function, so every caller of it
    gives the same verdict on each side of the boundary, and rejects through
    it."""

    LOG_RANGE = np.log(1.0 / linalg.SPD_TOL)  # log(1e12) = 27.63
    EXP_LIMIT = np.log(np.finfo(float).max / 2.0)  # 709.09

    @staticmethod
    def _spy(monkeypatch, name):
        """Wrap ``linalg.<name>`` in every module that imports it; the list
        returned collects the outcome of each call: the value it returns or
        the exception it raises."""
        from spdmeans import gtchain, kostant, means, orbit, realizations

        original = getattr(linalg, name)
        outcomes = []

        def spy(*args, **kwargs):
            try:
                outcomes.append(original(*args, **kwargs))
            except Exception as exc:
                outcomes.append(exc)
                raise
            return outcomes[-1]

        for mod in (linalg, gtchain, kostant, means, orbit, realizations, sampling):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, spy)
        return outcomes

    def _spd_range_cases(self, spread):
        """The callers of the SPD range on inputs whose log spread (the log
        condition number of the matrix checked) is ``spread``: the
        ``SpdMatrix`` constructor, ``SpdMatrix._from_eigs`` through
        ``mat_exp`` and integer and fractional ``mat_pow`` (inputs inside the
        range), and the SingularInput and target checks."""
        small = np.exp(-spread)
        zero = HermitianMatrix(np.zeros((2, 2)))
        return {
            "SpdMatrix": (DomainError, lambda: SpdMatrix(np.diag([1.0, small]))),
            "mat_exp": (DomainError, lambda: mat_exp(HermitianMatrix(np.diag([spread, 0.0])))),
            "mat_pow_integer": (
                DomainError,
                lambda: mat_pow(SpdMatrix(np.diag([1.0, np.exp(-spread / 2.0)])), 2),
            ),
            "mat_pow_fractional": (
                DomainError,
                lambda: mat_pow(SpdMatrix(np.diag([1.0, np.exp(-spread / 1.5)])), 1.5),
            ),
            "polar": (SingularInput, lambda: polar(ComplexMatrix(np.diag([1.0, small])))),
            "hyperbolic_spectrum": (
                SingularInput,
                lambda: hyperbolic_spectrum(ComplexMatrix(np.diag([1.0, small]))),
            ),
            "build_target": (
                DomainError,
                lambda: build_target(HermitianMatrix(np.diag([spread, 0.0])), zero, "exp_product"),
            ),
        }

    @pytest.mark.parametrize("delta", [1e-6, 1e-3])
    def test_spd_range_one_verdict(self, monkeypatch, delta):
        outcomes = self._spy(monkeypatch, "require_spd_range")
        for name, (_, call) in self._spd_range_cases(self.LOG_RANGE - delta).items():
            call()  # inside the range: accepted
            assert outcomes and all(o is None for o in outcomes), name
        for name, (error, call) in self._spd_range_cases(self.LOG_RANGE + delta).items():
            with pytest.raises(error) as info:
                call()
            assert outcomes[-1] is info.value, name

    def test_spd_range_messages(self):
        cases = self._spd_range_cases(self.LOG_RANGE + 1e-3)
        words = {
            "SpdMatrix": "not positive definite",
            "mat_exp": "not positive definite",
            "mat_pow_integer": "not positive definite",
            "mat_pow_fractional": "not positive definite",
            "polar": "invertible input",
            "hyperbolic_spectrum": "invertible input",
            "build_target": "not positive definite",
        }
        for name, (error, call) in cases.items():
            with pytest.raises(error, match=words[name]):
                call()

    def test_spd_range_reports_the_first_failing_set(self):
        vals = np.array([[[2.0, 1.0], [4.0, -0.5]], [[3.0, -1.0], [1.0, 1.0]]])
        with pytest.raises(DomainError, match=r"^x \[-5.000e-01, 4.000e\+00\]$"):
            linalg.require_spd_range(vals, "x")
        linalg.require_spd_range(vals[0, 0], "x")
        with pytest.raises(SingularInput, match=r"^y \[1.000e-12, 1.000e\+00\]$"):
            linalg.require_spd_range(np.array([1.0, 1e-12]), "y", SingularInput)

    def test_exp_outside_the_spd_range_raises(self):
        # cond e^30 = 1.07e13: the exponent bound passes, the SPD range not.
        with pytest.raises(DomainError, match="not positive definite"):
            mat_exp(HermitianMatrix(np.diag([30.0, 0.0])))

    @pytest.mark.parametrize("top", [709.0, 709.2])
    def test_exp_range_one_verdict(self, monkeypatch, top):
        outcomes = self._spy(monkeypatch, "require_exp_range")
        h = HermitianMatrix(np.diag([top, top - 1.0]))
        half = HermitianMatrix(np.diag([top / 2.0, top / 2.0]))
        calls = [
            lambda: mat_exp(h),
            lambda: mat_exp(HermitianMatrix(-h.mat)),
            lambda: build_target(half, half, "geometric"),
        ]
        for call in calls:
            if top < self.EXP_LIMIT:
                call()
            else:
                with pytest.raises(DomainError, match="float range") as info:
                    call()
                assert outcomes[-1] is info.value
        assert len(outcomes) == len(calls)

    def test_scan_rejects_through_the_exp_range(self, monkeypatch):
        outcomes = self._spy(monkeypatch, "require_exp_range")
        eye = HermitianMatrix(np.eye(2))
        with pytest.raises(DomainError, match="overflows at r = 400") as info:
            scan_chain(eye, eye, (0.5, 400.0, 800.0))
        assert outcomes == [info.value]

    def test_mat_exp_rejects_large_negative_eigenvalues(self):
        # e^-720 is a subnormal float; the exponent bound is |x| < 709.09.
        with pytest.raises(DomainError, match="float range"):
            mat_exp(HermitianMatrix(np.diag([-720.0, 0.0])))

    def test_unitarity_one_verdict(self, monkeypatch):
        outcomes = self._spy(monkeypatch, "unitarity_error")
        for eps, inside in ((0.4e-10, True), (0.6e-10, False)):
            u = np.diag([1.0, 1.0 + eps]).astype(complex)
            assert REALIZATIONS["glc"].contains(u) == inside
            assert REALIZATIONS["slr"].contains(u) == inside
            if inside:
                UnitaryMatrix(u)
            else:
                with pytest.raises(DomainError, match="not unitary") as info:
                    UnitaryMatrix(u)
                assert outcomes[-1] is info.value
        assert len(outcomes) == 6

    def test_membership_checks_unitarity_through_the_one_function(self, monkeypatch):
        prob = OrbitProblem.create(random_hermitian(3, 5), random_hermitian(3, 6), "geometric")
        sol = solve(prob)
        outcomes = self._spy(monkeypatch, "unitarity_error")
        assert verify_membership(sol, prob)
        # One verdict on the stacked pair [U; V].
        assert outcomes == [None]

    def test_hermitian_one_verdict(self, monkeypatch):
        outcomes = self._spy(monkeypatch, "hermitian_error")
        for off, inside in ((0.9e-10, True), (1.1e-10, False)):
            arr = np.array([[1.0, 0.5 + off], [0.5, 1.0]], dtype=complex)
            spectrum(ComplexMatrix(arr))
            assert (outcomes[-1] is None) == inside
            if inside:
                HermitianMatrix(arr)
            else:
                with pytest.raises(DomainError, match="not Hermitian") as info:
                    HermitianMatrix(arr)
                assert outcomes[-1] is info.value
        assert len(outcomes) == 4

    def test_pair_dimension_one_verdict(self, monkeypatch):
        outcomes = self._spy(monkeypatch, "require_same_dimension")
        spd2, spd3 = SpdMatrix(np.eye(2)), SpdMatrix(np.eye(3))
        h2, h3 = random_hermitian(2, 1), random_hermitian(3, 2)
        calls = {
            "means": lambda: geometric_mean(spd2, spd3),
            "loewner_leq": lambda: loewner_leq(h2, h3),
            "gtchain": lambda: scan_chain(h2, h3),
            "build_target": lambda: build_target(h2, h3, "geometric"),
            "kostant_report": lambda: kostant_report(ComplexMatrix(np.eye(2)),
                                                     ComplexMatrix(np.eye(3))),
        }
        for name, call in calls.items():
            with pytest.raises(DimensionMismatch, match="^dimension mismatch: 2 vs 3$") as info:
                call()
            assert outcomes[-1] is info.value, name
        assert len(outcomes) == len(calls)

    def test_pair_type_checks(self):
        h, spd = random_hermitian(2, 1), SpdMatrix(np.eye(2))
        with pytest.raises(ParamOutOfRange, match="positive definite matrices"):
            geometric_mean(h, spd)
        with pytest.raises(ParamOutOfRange, match="Hermitian matrices"):
            scan_chain(ComplexMatrix(np.eye(2)), h)
