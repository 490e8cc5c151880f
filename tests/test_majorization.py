from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdmeans import (
    ComplexMatrix,
    DomainError,
    LengthMismatch,
    NonPositiveEntry,
    ParamOutOfRange,
    SpdMatrix,
    check_compound_mean_identities,
    compound,
    eig_hermitian,
    log_majorization_margins,
    log_majorization_report,
    log_majorizes,
    majorization_report,
    majorizes,
    polar,
    random_invertible,
    random_spd,
    spectrum,
    suites,
)
from spdmeans.means import _MeanPair

finite_vec = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    min_size=2,
    max_size=8,
)


class TestMajorizes:
    def test_basic(self):
        assert majorizes([2.0, 2.0], [3.0, 1.0])
        assert not majorizes([3.0, 1.0], [2.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            majorizes([1.0], [1.0, 2.0])

    @given(finite_vec)
    @settings(max_examples=60, deadline=None)
    def test_reflexive(self, y):
        assert majorizes(y, y)

    @given(finite_vec, st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_permutation_average_is_majorized(self, y, k):
        # Averaging permutations moves toward the mean: Birkhoff/Rado oracle.
        rng = np.random.default_rng(k)
        y = np.asarray(y)
        perms = [rng.permutation(y) for _ in range(k + 1)]
        x = np.mean(perms, axis=0)
        assert majorizes(x, y)

    @given(finite_vec)
    @settings(max_examples=40, deadline=None)
    def test_mean_vector_is_least(self, y):
        y = np.asarray(y)
        x = np.full_like(y, y.mean())
        assert majorizes(x, y)

    def test_mutual_majorization_means_equal_sorted(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = rng.standard_normal(5)
            x = rng.permutation(y)
            assert majorizes(x, y) and majorizes(y, x)
            rep = majorization_report(x, y)
            assert rep.worst_margin >= -rep.tol

    def test_transitive_on_witnessed_triples(self):
        rng = np.random.default_rng(3)
        found = 0
        for _ in range(200):
            z = rng.standard_normal(4)
            y = 0.5 * z + 0.5 * rng.permutation(z)
            x = 0.5 * y + 0.5 * rng.permutation(y)
            if majorizes(x, y) and majorizes(y, z):
                assert majorizes(x, z)
                found += 1
        assert found > 50


class TestLogMajorizes:
    def test_diagonal_counterexample_inputs(self):
        assert log_majorizes([4.0, 2.0], [8.0, 1.0])

    def test_diagonal_counterexample_means_fail(self):
        r2 = np.sqrt(2.0)
        assert not log_majorizes([4 * r2, 2.0], [4.0, 2 * r2])

    def test_equal_vectors(self):
        assert log_majorizes([3.0, 1.0], [3.0, 1.0])

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveEntry):
            log_majorizes([1.0, 0.0], [1.0, 1.0])

    def test_weyl_moduli_vs_singular_values(self):
        # |lambda(M U)| <=_log s(M) for any unitary U.
        from spdmeans import random_unitary

        for seed in range(15):
            m = random_invertible(4, 500 + seed)
            u = random_unitary(4, 600 + seed)
            mu = ComplexMatrix(m.mat @ u.mat)
            moduli = np.abs(spectrum(mu))
            gram = m.mat.conj().T @ m.mat
            from spdmeans import HermitianMatrix

            svals = np.sqrt(eig_hermitian(HermitianMatrix(gram)).values)
            assert log_majorizes(np.sort(moduli)[::-1], svals)


class TestNonFiniteEntries:
    """An infinite or NaN entry has no logarithm to compare, and makes the
    plain predicates' slack inf or every comparison false: DomainError from
    the one-pair predicates, their reports and the stacked kernel."""

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("side", ["x", "y"])
    @pytest.mark.parametrize("fn", [majorizes, majorization_report, log_majorizes,
                                    log_majorization_report, log_majorization_margins])
    def test_raises(self, fn, side, bad):
        good = np.array([1.0, 1.0])
        odd = np.array([bad, 1.0])
        args = (odd, good) if side == "x" else (good, odd)
        with pytest.raises(DomainError, match="finite entries"):
            fn(*args)

    def test_stack_with_one_bad_entry(self):
        x = np.ones((50, 4))
        y = np.ones((50, 4))
        y[37, 2] = np.inf
        with pytest.raises(DomainError):
            log_majorization_margins(x, y)

    def test_non_positive_checked_first(self):
        with pytest.raises(NonPositiveEntry):
            log_majorizes([np.inf, 0.0], [1.0, 1.0])


def _row_reports(x, y):
    """(worst margin, tol) of log_majorization_report on each row pair."""
    n = x.shape[-1]
    reps = [log_majorization_report(a, b) for a, b in zip(x.reshape(-1, n), y.reshape(-1, n))]
    return [rep.worst_margin for rep in reps], [rep.tol for rep in reps]


class TestLogMajorizationMargins:
    """The stacked kernel against the one-row report, compared with ==."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32])
    def test_random_stacks_match_rows_exactly(self, n):
        rng = np.random.default_rng(100 + n)
        x = np.exp(rng.normal(scale=3.0, size=(40, n)))
        # Half the rows with equal products (y is x reversed, times factors
        # of product one), so their total gap is roundoff; half arbitrary.
        y = np.exp(rng.normal(scale=3.0, size=(40, n)))
        y[:20] = x[:20, ::-1] * np.exp(np.linspace(1.0, -1.0, n))
        worst, tol = log_majorization_margins(x, y)
        ref_worst, ref_tol = _row_reports(x, y)
        assert worst.shape == tol.shape == (40,)
        assert worst.tolist() == ref_worst
        assert tol.tolist() == ref_tol

    def test_tied_and_equal_rows(self):
        rng = np.random.default_rng(7)
        x = rng.integers(1, 4, size=(30, 6)).astype(float)
        y = rng.integers(1, 4, size=(30, 6)).astype(float)
        y[::3] = x[::3]
        worst, tol = log_majorization_margins(x, y)
        ref_worst, ref_tol = _row_reports(x, y)
        assert worst.tolist() == ref_worst and tol.tolist() == ref_tol
        assert (worst[::3] == 0.0).all()

    def test_one_row_and_higher_stacks(self):
        rng = np.random.default_rng(8)
        x = np.exp(rng.normal(size=(3, 4, 5)))
        y = np.exp(rng.normal(size=(3, 4, 5)))
        worst, tol = log_majorization_margins(x, y)
        ref_worst, ref_tol = _row_reports(x, y)
        assert worst.shape == (3, 4)
        assert worst.ravel().tolist() == ref_worst and tol.ravel().tolist() == ref_tol
        worst1, tol1 = log_majorization_margins(x[0, 0], y[0, 0])
        assert worst1.shape == tol1.shape == ()
        assert float(worst1) == ref_worst[0] and float(tol1) == ref_tol[0]

    def test_single_entry_rows_have_no_partial_sums(self):
        x = np.array([[2.0], [3.0], [1.0]])
        y = np.array([[2.0], [1.0], [1.0 + 1e-12]])
        worst, tol = log_majorization_margins(x, y)
        ref_worst, ref_tol = _row_reports(x, y)
        assert worst.tolist() == ref_worst and tol.tolist() == ref_tol
        assert worst[0] == 0.0 and worst[1] < 0.0

    @pytest.mark.parametrize("side", [0, 1])
    def test_one_zero_entry_in_a_large_stack_raises(self, side):
        rng = np.random.default_rng(9)
        pair = [np.exp(rng.normal(size=(500, 16))) for _ in range(2)]
        pair[side][317, 11] = 0.0
        with pytest.raises(NonPositiveEntry):
            log_majorization_margins(*pair)

    @pytest.mark.parametrize("xs,ys", [
        ((5, 4), (5, 3)), ((5, 4), (4, 4)), ((4,), (1, 4)), ((), ()), ((3, 0), (3, 0)),
    ])
    def test_shape_mismatch_raises(self, xs, ys):
        with pytest.raises(LengthMismatch):
            log_majorization_margins(np.ones(xs), np.ones(ys))

    @pytest.mark.parametrize("report", [majorization_report, log_majorization_report])
    def test_empty_vectors_raise(self, report):
        with pytest.raises(LengthMismatch, match="nonempty"):
            report([], [])


class TestCompound:
    def test_first_compound_is_identity_map(self):
        m = random_invertible(3, 1)
        assert np.array_equal(compound(m, 1).mat, m.mat)

    def test_diagonal_minors(self):
        c2 = compound(ComplexMatrix(np.diag([1.0, 2.0, 3.0])), 2)
        assert np.allclose(c2.mat, np.diag([2.0, 3.0, 6.0]))

    def test_full_compound_is_determinant(self):
        m = random_invertible(4, 2)
        c = compound(m, 4)
        assert c.n == 1
        assert abs(c.mat[0, 0] - np.linalg.det(m.mat)) < 1e-10 * abs(c.mat[0, 0])

    @pytest.mark.parametrize("k", [2, 3])
    def test_multiplicativity(self, k):
        a = random_invertible(4, 10 + k)
        b = random_invertible(4, 20 + k)
        lhs = compound(ComplexMatrix(a.mat @ b.mat), k).mat
        rhs = compound(a, k).mat @ compound(b, k).mat
        assert np.abs(lhs - rhs).max() <= 1e-11 * np.abs(lhs).max()

    def test_out_of_range(self):
        m = random_invertible(3, 3)
        with pytest.raises(ParamOutOfRange):
            compound(m, 0)
        with pytest.raises(ParamOutOfRange):
            compound(m, 4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_minor_loop(self, n):
        # The reference: each minor gathered by its own row and column subset.
        m = random_invertible(n, 40 + n)
        for k in range(2, n + 1):
            subsets = list(combinations(range(n), k))
            blocks = np.empty((len(subsets), len(subsets), k, k), dtype=complex)
            for i, rows in enumerate(subsets):
                for j, cols in enumerate(subsets):
                    blocks[i, j] = m.mat[list(rows), :][:, list(cols)]
            assert np.array_equal(compound(m, k).mat, np.linalg.det(blocks))

    @pytest.mark.parametrize("k", [2, 3])
    def test_top_eigenvalue_is_product(self, k):
        for seed in range(10):
            a = random_spd(6, 700 + seed)
            lam = eig_hermitian(a).values
            top = eig_hermitian(SpdMatrix(compound(a, k).mat)).values[0]
            target = float(np.prod(lam[:k]))
            assert abs(top - target) <= 1e-10 * abs(target)


def _means_log_majorized(a, b, t):
    """lambda(A #_t B) <_log lambda(A @_t B) by the suites' one pass rule."""
    lam_sharp, lam_natural = _MeanPair(a, b).spectra([t])
    margin = log_majorization_report(lam_sharp[0], lam_natural[0]).worst_margin
    return margin >= -suites.LOGMAJ_MARGIN_TOL


class TestMeanChecks:
    def test_order_counterexample_pair(self):
        a = SpdMatrix([[6.0, -3.0], [-3.0, 4.0]])
        b = SpdMatrix([[4.0, -2.0], [-2.0, 5.0]])
        assert _means_log_majorized(a, b, 0.5)

    def test_equal_matrices(self):
        a = random_spd(3, 5)
        assert _means_log_majorized(a, a, 0.3)

    def test_seeded_battery(self):
        for trial in range(60):
            a = random_spd(2 + trial % 7, 3000 + trial)
            b = random_spd(2 + trial % 7, 4000 + trial)
            t = (trial % 11) / 10.0
            assert _means_log_majorized(a, b, t)

    def test_compound_identities_trivial_orders(self):
        a = random_spd(4, 61)
        b = random_spd(4, 62)
        rep1 = check_compound_mean_identities(a, b, 0.7, 1)
        assert rep1.passed
        rep4 = check_compound_mean_identities(a, b, 0.7, 4)
        assert rep4.passed  # order n reduces to the determinant law

    def test_compound_identities_reject_t_outside_the_unit_interval(self):
        with pytest.raises(ParamOutOfRange, match=r"t must lie in \[0, 1\], got 1.5"):
            check_compound_mean_identities(random_spd(3, 65), random_spd(3, 66), 1.5, 2)

    def test_compound_identities_middle_orders(self):
        a = random_spd(4, 63)
        b = random_spd(4, 64)
        for k in (2, 3):
            rep = check_compound_mean_identities(a, b, 0.7, k)
            assert rep.sharp_residual <= 1e-10
            assert rep.natural_residual <= 1e-10
