import warnings

import numpy as np
import pytest

from spdmeans import (
    DEFAULT_R_GRID,
    DomainError,
    HermitianMatrix,
    NonPositiveEntry,
    ParamOutOfRange,
    SpdMatrix,
    eig_hermitian,
    evaluate_chain,
    geometric_mean,
    golden_thompson_refinement,
    hyperbolic_spectrum,
    log_majorization_report,
    mat_exp,
    mat_pow,
    phi,
    psi,
    random_hermitian,
    random_real_symmetric_traceless,
    random_unitary,
    scan_chain,
    spectral_mean,
    trotter_distances,
)
from spdmeans import gtchain, kostant, majorization, realizations, suites
from spdmeans.gtchain import ROUNDOFF_BAND, refinement_from_scan


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

    # X = Y = scale I.  e^{1000} overflows; at r = 700 a product inside a
    # mean does; at scale 400, e^{X+Y} does at every r.  The error names the
    # first such r before any mean is taken.
    @pytest.mark.parametrize("grid,error,match,scale", [
        ((0.5, np.inf), ParamOutOfRange, "finite", 1.0),
        ((0.5, 1000.0), DomainError, "overflows at r = 1000", 1.0),
        ((0.5, 700.0), DomainError, "overflows at r = 700", 1.0),
        ((0.5,), DomainError, "overflows at r = 0.5", 400.0),
    ], ids=["r-inf", "r-1000", "r-700", "scale-400"])
    def test_infinite_or_overflowing_r_rejected(self, grid, error, match, scale):
        x = HermitianMatrix(scale * np.eye(2))
        with pytest.raises(error, match=match):
            scan_chain(x, x, grid)
        eye = HermitianMatrix(np.eye(2))
        scan_chain(eye, eye, [0.5, 300.0])

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

    def test_wide_pair_matches_reference_traces(self):
        # cond(e^{8X}) = e^41.  A product form of the mean at r = 8 came out
        # with a negative computed eigenvalue here; the Gram-factor means are
        # positive by construction.  Reference traces of phi and psi at
        # r = 4 and 8: mpmath at 50 digits from the same float64 X and Y.
        x = random_hermitian(4, 8092, 3.0)
        y = random_hermitian(4, 8093, 3.0)
        scan = scan_chain(x, y)
        assert scan.r_grid[-2:] == (4.0, 8.0)
        want = [(11.589021506973150656, 171.94603041551401206),
                (9.8004798342222056976, 189.39834580559454889)]
        for (tr_phi, tr_psi, _), (ref_phi, ref_psi) in zip(scan.traces[-2:], want):
            assert abs(tr_phi - ref_phi) <= 1e-8 * ref_phi
            assert abs(tr_psi - ref_psi) <= 1e-12 * ref_psi
        assert evaluate_chain(scan).passed

    def test_far_past_the_range_raises_without_warnings(self):
        # cond(e^X) = e^426, inside the overflow bound (426 < 709.09): the
        # computed eigenvalues of phi and psi are meaningless, and the range
        # check on them raises before any is wrapped.
        u = random_unitary(2, 4).mat
        x = HermitianMatrix(u @ np.diag([213.0, -213.0]) @ u.conj().T)
        y = HermitianMatrix(np.zeros((2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="phi or psi is not positive definite"):
                scan_chain(x, y, (1.0,))

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

    def test_exponential_outside_the_spd_range_raises(self):
        # X + Y = 0, so the scan's phi, psi and e^{X+Y} are I, but cond(e^X)
        # = e^30 is past the SPD range, and e^X is an SpdMatrix.
        x, y = diag_h(15.0, -15.0), diag_h(-15.0, 15.0)
        assert np.array_equal(scan_chain(x, y, (0.5, 1.0)).exp_sum.mat, np.eye(2))
        with pytest.raises(DomainError, match="not positive definite"):
            golden_thompson_refinement(x, y)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_from_default_grid_scan_matches_own_scan(self, n):
        # The bits of a grid point do not depend on the rest of the grid.
        x = random_hermitian(n, 300 + n, 0.5)
        y = random_hermitian(n, 400 + n, 0.5)
        rows = refinement_from_scan(scan_chain(x, y))
        assert rows == golden_thompson_refinement(x, y)

    def test_from_scan_rejects_r_off_grid_or_above_one(self):
        x = random_hermitian(3, 9, 0.5)
        y = random_hermitian(3, 10, 0.5)
        with pytest.raises(ParamOutOfRange):
            refinement_from_scan(scan_chain(x, y, (0.25, 1.0)))
        with pytest.raises(ParamOutOfRange):
            refinement_from_scan(scan_chain(x, y), (2.0,))

    def test_suite_chain_scans_each_pair_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return scan_chain(*args, **kwargs)

        monkeypatch.setattr(suites, "scan_chain", counted)
        monkeypatch.setattr(gtchain, "scan_chain", counted)
        assert suites.suite_chain(trials=3, seed=1).passed
        assert len(calls) == 3


def _row_by_row_checks(scan, spectra=None):
    """The log-majorization checks of ``evaluate_chain``, one
    ``log_majorization_report`` per check, in report order."""
    if spectra is None:
        spectra = (scan.phi_spectra, scan.psi_spectra, scan.exp_sum_spectrum)
    phis, psis, mid = spectra
    rows = []
    for r, lam_phi, lam_psi in zip(scan.r_grid, phis, psis):
        rows.append(("phi_below_exp_sum", r, lam_phi, mid))
        rows.append(("psi_above_exp_sum", r, mid, lam_psi))
    for r, prev, cur in zip(scan.r_grid[1:], phis, phis[1:]):
        rows.append(("phi_decreasing", r, cur, prev))
    for r, prev, cur in zip(scan.r_grid[1:], psis, psis[1:]):
        rows.append(("psi_increasing", r, prev, cur))
    out = []
    for name, r, lower, upper in rows:
        rep = log_majorization_report(lower, upper)
        out.append((name, r, rep.worst_margin, ROUNDOFF_BAND * rep.tol))
    return out


def _chain_pair(realization, n, seed):
    sample = {"glc": random_hermitian, "slr": random_real_symmetric_traceless}[realization]
    return sample(n, seed, 0.5), sample(n, seed + 1, 0.5)


class TestEvaluateChainStacked:
    """evaluate_chain's one reduction against a row-by-row reference."""

    @pytest.mark.parametrize("grid", [DEFAULT_R_GRID, (0.5,)], ids=["default", "one-point"])
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize("realization", ["glc", "slr"])
    def test_checks_match_row_by_row(self, realization, n, grid):
        x, y = _chain_pair(realization, n, 7300 + 10 * n)
        scan = scan_chain(x, y, grid)
        moduli = (
            [hyperbolic_spectrum(m) for m in scan.phi_mats],
            [hyperbolic_spectrum(m) for m in scan.psi_mats],
            hyperbolic_spectrum(scan.exp_sum),
        )
        for spectra in (None, moduli):
            ref = _row_by_row_checks(scan, spectra)
            assert len(ref) == 4 * len(grid) - 2
            checks = evaluate_chain(scan, spectra=spectra).checks
            got = [(c.name, c.r, c.margin, c.tol) for c in checks[: len(ref)]]
            assert got == ref
            assert all(c.name.startswith("trace_") for c in checks[len(ref):])

    def test_zero_modulus_override_raises(self):
        x, y = _chain_pair("glc", 3, 7400)
        scan = scan_chain(x, y)
        phis = [lam.copy() for lam in scan.phi_spectra]
        phis[4][-1] = 0.0
        with pytest.raises(NonPositiveEntry):
            evaluate_chain(scan, spectra=(phis, scan.psi_spectra, scan.exp_sum_spectrum))

    def test_chain_and_t_grid_compare_in_one_reduction(self, monkeypatch):
        # No per-row log_majorization_report call on the chain or the
        # log-majorization suite: the kernel runs once per comparator per
        # scan, and once per trial of the t grid.
        row_calls, kernel_calls = [], []
        report, kernel = majorization.log_majorization_report, majorization.log_majorization_margins

        def row_spy(*args, **kwargs):
            row_calls.append(1)
            return report(*args, **kwargs)

        def kernel_spy(*args, **kwargs):
            kernel_calls.append(1)
            return kernel(*args, **kwargs)

        for module in (majorization, gtchain, kostant, suites, realizations):
            monkeypatch.setattr(module, "log_majorization_report", row_spy, raising=False)
            monkeypatch.setattr(module, "log_majorization_margins", kernel_spy, raising=False)
        assert suites.suite_chain(trials=2, seed=3).passed
        assert (len(row_calls), len(kernel_calls)) == (0, 4)
        assert suites.suite_log_majorization(trials=2, seed=3).passed
        assert (len(row_calls), len(kernel_calls)) == (0, 6)
