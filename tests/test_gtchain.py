import numpy as np
import pytest

from spdmeans import (
    DEFAULT_R_GRID,
    DomainError,
    HermitianMatrix,
    ParamOutOfRange,
    SpdMatrix,
    eig_hermitian,
    evaluate_chain,
    geometric_mean,
    golden_thompson_refinement,
    mat_exp,
    mat_pow,
    phi,
    psi,
    random_hermitian,
    scan_chain,
    spectral_mean,
    trotter_distances,
)


def diag_h(*vals):
    return HermitianMatrix(np.diag(vals).astype(complex))


class TestPhiPsi:
    def test_equal_arguments(self):
        x = random_hermitian(3, 5, 0.5)
        target = mat_exp(HermitianMatrix(2.0 * x.mat)).mat
        for r in (0.5, 1.0, 2.0):
            assert np.abs(phi(x, x, r).mat - target).max() <= 1e-12 * np.abs(target).max()
            assert np.abs(psi(x, x, r).mat - target).max() <= 1e-12 * np.abs(target).max()

    def test_commuting_pair(self):
        x = diag_h(0.3, -0.2, 0.1)
        y = diag_h(-0.1, 0.4, 0.2)
        target = np.diag(np.exp(np.diag(x.mat.real + y.mat.real)))
        for r in DEFAULT_R_GRID:
            assert np.abs(phi(x, y, r).mat - target).max() < 1e-13
            assert np.abs(psi(x, y, r).mat - target).max() < 1e-13

    def test_rejects_non_positive_r(self):
        x = random_hermitian(2, 1, 0.5)
        with pytest.raises(ParamOutOfRange):
            phi(x, x, 0.0)
        with pytest.raises(ParamOutOfRange):
            psi(x, x, -1.0)

    def test_psi_spectrum_matches_proof_identity(self):
        # lambda(psi(r)) = lambda((e^{rX/2} e^{rY} e^{rX/2})^{1/r})
        x = random_hermitian(4, 100, 0.5)
        y = random_hermitian(4, 200, 0.5)
        for r in (0.5, 1.0, 1.7):
            lam = eig_hermitian(psi(x, y, r)).values
            ex = mat_exp(HermitianMatrix(0.5 * r * x.mat)).mat
            ey = mat_exp(HermitianMatrix(r * y.mat)).mat
            ref_mat = mat_pow(SpdMatrix(ex @ ey @ ex), 1.0 / r)
            ref = eig_hermitian(ref_mat).values
            assert np.abs(lam - ref).max() <= 1e-9 * ref.max()


class TestScanChain:
    def test_grid_validation(self):
        x = random_hermitian(2, 1, 0.5)
        with pytest.raises(ParamOutOfRange):
            scan_chain(x, x, [])
        with pytest.raises(ParamOutOfRange):
            scan_chain(x, x, [1.0, 0.5])
        with pytest.raises(ParamOutOfRange):
            scan_chain(x, x, [-1.0, 1.0])

    def test_commuting_scan_degenerates(self):
        x = diag_h(0.2, -0.1)
        y = diag_h(0.3, 0.4)
        scan = scan_chain(x, y)
        ref = scan.exp_sum_spectrum
        for lam_phi, lam_psi in zip(scan.phi_spectra, scan.psi_spectra):
            assert np.abs(lam_phi - ref).max() < 1e-12
            assert np.abs(lam_psi - ref).max() < 1e-12
        assert evaluate_chain(scan).passed

    def test_random_pairs_all_predicates(self):
        for trial in range(15):
            n = 2 + trial % 5
            x = random_hermitian(n, 900 + trial, 0.5)
            y = random_hermitian(n, 950 + trial, 0.5)
            scan = scan_chain(x, y)
            report = evaluate_chain(scan)
            assert report.passed, (trial, report.worst)

    def test_traces_sandwich_and_monotone(self):
        x = random_hermitian(4, 33, 0.5)
        y = random_hermitian(4, 44, 0.5)
        scan = scan_chain(x, y)
        tr_phi = [row[0] for row in scan.traces]
        tr_psi = [row[1] for row in scan.traces]
        tr_mid = scan.traces[0][2]
        assert all(p <= tr_mid + 1e-10 <= s + 2e-10 for p, s in zip(tr_phi, tr_psi))
        assert all(b <= a + 1e-10 for a, b in zip(tr_phi, tr_phi[1:]))
        assert all(a <= b + 1e-10 for a, b in zip(tr_psi, tr_psi[1:]))

    def test_numerically_indefinite_mean_raises(self):
        # A mean fed to mat_pow(., 2 / r) comes out with a negative computed
        # eigenvalue; phi and psi were NaN.
        x = random_hermitian(4, 8092, 3.0)
        y = random_hermitian(4, 8093, 3.0)
        with pytest.raises(DomainError, match="not positive definite"):
            scan_chain(x, y)

    @pytest.mark.parametrize("n", [2, 5, 8, 16])
    def test_stacked_scan_matches_one_pair_means(self, n):
        # Each grid point of the stacked scan against the one-pair means and
        # mat_pow, and the one-point views phi / psi against the scan.
        x = random_hermitian(n, 4100 + n, 0.5)
        y = random_hermitian(n, 4200 + n, 0.5)
        assert np.abs(x.mat @ y.mat - y.mat @ x.mat).max() > 1e-3
        scan = scan_chain(x, y)
        for i, r in enumerate(DEFAULT_R_GRID):
            ea, eb = mat_exp(x, r), mat_exp(y, r)
            for got, mean in (
                (scan.phi_mats[i], geometric_mean(ea, eb)),
                (scan.psi_mats[i], spectral_mean(ea, eb)),
            ):
                ref = mat_pow(mean, 2.0 / r).mat
                assert np.abs(got.mat - ref).max() <= 1e-12 * np.abs(ref).max()
            assert np.array_equal(phi(x, y, r).mat, scan.phi_mats[i].mat)
            assert np.array_equal(psi(x, y, r).mat, scan.psi_mats[i].mat)

    def test_trotter_distances_shrink_as_r_halves(self):
        x = random_hermitian(3, 55, 0.5)
        y = random_hermitian(3, 66, 0.5)
        grid = tuple(2.0 ** k for k in range(-6, 1))  # 1/64 .. 1
        scan = scan_chain(x, y, grid)
        dists = trotter_distances(scan)
        for (r1, p1, s1), (r2, p2, s2) in zip(dists, dists[1:]):
            assert p1 < p2 and s1 < s2


class TestGoldenThompsonRefinement:
    def test_sandwich_rows(self):
        x = random_hermitian(4, 77, 0.5)
        y = random_hermitian(4, 88, 0.5)
        for r, lo, mid, hi in golden_thompson_refinement(x, y):
            assert lo <= mid + 1e-12
            assert mid <= hi + 1e-12

    def test_r_one_upper_end_exact(self):
        x = random_hermitian(3, 7, 0.5)
        y = random_hermitian(3, 8, 0.5)
        rows = golden_thompson_refinement(x, y, r_values=(1.0,))
        _, _, mid, hi = rows[0]
        assert abs(mid - hi) <= 1e-10 * abs(hi)

    def test_rows_in_the_order_given(self):
        x = random_hermitian(4, 77, 0.5)
        y = random_hermitian(4, 88, 0.5)
        rows = golden_thompson_refinement(x, y, (1.0, 0.5))
        assert [row[0] for row in rows] == [1.0, 0.5]
        assert rows == [golden_thompson_refinement(x, y, (r,))[0] for r in (1.0, 0.5)]
        assert golden_thompson_refinement(x, y, (0.5, 1.0, 0.5)) == rows[::-1] + rows[1:]

    def test_rejects_out_of_range_r(self):
        x = random_hermitian(2, 9, 0.5)
        with pytest.raises(ParamOutOfRange):
            golden_thompson_refinement(x, x, r_values=(2.0,))
