import warnings
from dataclasses import replace

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
from spdmeans.gtchain import (
    CHAIN_FAMILIES,
    MIN_R,
    REFINEMENT_R,
    ROUNDOFF_BAND,
    ChainReport,
    refinement_from_scan,
)
from spdmeans.majorization import default_tol


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

    def test_r_floor(self):
        # Below MIN_R, sigma^{4/r} magnifies the SVD's rounding past the
        # roundoff band, so the grid is refused rather than scanned.
        x, y = random_hermitian(4, 11, 1.0), random_hermitian(4, 12, 1.0)
        assert MIN_R == 2.0 ** -10
        assert evaluate_chain(scan_chain(x, y, (MIN_R, 1.0))).passed
        for r in (2.0 ** -11, 1e-6, 1e-30, 0.0):
            with pytest.raises(ParamOutOfRange, match="MIN_R = 2\\^-10"):
                scan_chain(x, y, (r, 1.0))

    # X = Y = scale I.  e^{1000} overflows; at r = 700 a product inside a
    # mean does; at scale 400, e^{X+Y} does at every r.  The error names the
    # first such r before any mean is taken.
    @pytest.mark.parametrize("grid,error,match,scale", [
        ((0.5, np.inf), ParamOutOfRange, "finite", 1.0),
        ((np.nan, 1.0), ParamOutOfRange, "finite", 1.0),
        ((0.5, 1000.0), DomainError, "overflows at r = 1000", 1.0),
        ((0.5, 700.0), DomainError, "overflows at r = 700", 1.0),
        ((0.5,), DomainError, "overflows at r = 0.5", 400.0),
    ], ids=["r-inf", "r-nan", "r-1000", "r-700", "scale-400"])
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
        m, ref = len(scan.r_grid), scan.spectra[-1]
        for lam_phi, lam_psi in zip(scan.spectra[:m], scan.spectra[m:-1]):
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
        m, traces = len(scan.r_grid), scan.traces.tolist()
        tr_phi, tr_psi, tr_mid = traces[:m], traces[m:-1], traces[-1]
        assert all(p <= tr_mid + 1e-10 <= s + 2e-10 for p, s in zip(tr_phi, tr_psi))
        assert all(b <= a + 1e-10 for a, b in zip(tr_phi, tr_phi[1:]))
        assert all(a <= b + 1e-10 for a, b in zip(tr_psi, tr_psi[1:]))

    def test_wide_pair_matches_reference_traces(self):
        # cond(e^{4X}) = e^20.5, inside the SPD range.  A product form of the
        # mean came out with a negative computed eigenvalue on this pair; the
        # Gram-factor means are positive by construction.  Reference traces
        # of phi and psi at r = 4: mpmath at 50 digits from the same float64
        # X and Y.  At r = 8, cond(e^{8X}) = e^41 is past the range.
        x = random_hermitian(4, 8092, 3.0)
        y = random_hermitian(4, 8093, 3.0)
        scan = scan_chain(x, y, DEFAULT_R_GRID[:-1])
        assert scan.r_grid[-1] == 4.0
        m = len(scan.r_grid)
        tr_phi, tr_psi = scan.traces[m - 1], scan.traces[2 * m - 1]
        ref_phi, ref_psi = 11.589021506973150656, 171.94603041551401206
        assert abs(tr_phi - ref_phi) <= 1e-8 * ref_phi
        assert abs(tr_psi - ref_psi) <= 1e-12 * ref_psi
        assert evaluate_chain(scan).passed
        with pytest.raises(DomainError, match=r"^e\^\{rX\} at r = 8 is not positive definite"):
            scan_chain(x, y, (8.0,))

    def test_far_past_the_range_raises_without_warnings(self):
        # cond(e^X) = e^426, inside the overflow bound (426 < 709.09) but
        # far past the SPD range: the range check on e^{rX} raises before
        # any mean is taken.
        u = random_unitary(2, 4).mat
        x = HermitianMatrix(u @ np.diag([213.0, -213.0]) @ u.conj().T)
        y = HermitianMatrix(np.zeros((2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=r"^e\^\{rX\} at r = 1 is not positive"):
                scan_chain(x, y, (1.0,))

    def test_chain_function_past_the_range_raises_without_warnings(self):
        # The same pair at r = MIN_R: cond(e^{rX}) = e^0.42 is in range, but
        # phi and psi tend to e^{X+Y}, of condition number e^426, and the
        # range check on their eigenvalues raises before any is wrapped.
        u = random_unitary(2, 4).mat
        x = HermitianMatrix(u @ np.diag([213.0, -213.0]) @ u.conj().T)
        y = HermitianMatrix(np.zeros((2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="phi or psi is not positive definite"):
                scan_chain(x, y, (MIN_R,))

    @pytest.mark.parametrize("n", [2, 5, 8, 16])
    def test_stacked_scan_matches_one_pair_means(self, n):
        # Each grid point of the stacked scan against the one-pair means and
        # mat_pow, and the one-point views phi / psi against the scan.
        x = random_hermitian(n, 4100 + n, 0.5)
        y = random_hermitian(n, 4200 + n, 0.5)
        assert np.abs(x.mat @ y.mat - y.mat @ x.mat).max() > 1e-3
        scan = scan_chain(x, y)
        m = len(DEFAULT_R_GRID)
        for i, r in enumerate(DEFAULT_R_GRID):
            ea, eb = (mat_exp(HermitianMatrix(r * h.mat)) for h in (x, y))
            for got, mean in (
                (scan.mats[i], geometric_mean(ea, eb)),
                (scan.mats[m + i], spectral_mean(ea, eb)),
            ):
                ref = mat_pow(mean, 2.0 / r).mat
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
            assert np.array_equal(phi(x, y, r).mat, scan.mats[i])
            assert np.array_equal(psi(x, y, r).mat, scan.mats[m + i])

    def test_trotter_distances_shrink_as_r_halves(self):
        x = random_hermitian(3, 55, 0.5)
        y = random_hermitian(3, 66, 0.5)
        grid = tuple(2.0 ** k for k in range(-6, 1))  # 1/64 .. 1
        scan = scan_chain(x, y, grid)
        dists = trotter_distances(scan)
        for (r1, p1, s1), (r2, p2, s2) in zip(dists, dists[1:]):
            assert p1 < p2 and s1 < s2


class TestOneForm:
    """A scan holds its 2R + 1 operands once, as read-only stacks, and an
    operand becomes an ``SpdMatrix`` only where ``element`` reads it."""

    @pytest.mark.parametrize("grid", [DEFAULT_R_GRID, (0.5,)], ids=["default", "one-point"])
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_elements_are_the_stack(self, n, grid):
        x, y = random_hermitian(n, 7500 + n, 0.5), random_hermitian(n, 7600 + n, 0.5)
        scan = scan_chain(x, y, grid)
        m = len(grid)
        stacks = (scan.mats, scan.spectra, scan.vectors, scan.traces)
        assert [part.shape for part in stacks] == [
            (2 * m + 1, n, n), (2 * m + 1, n), (2 * m + 1, n, n), (2 * m + 1,)]
        for part in stacks:
            assert not part.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 0.0
        for k in range(2 * m + 1):
            element = scan.element(k)
            assert type(element) is SpdMatrix
            assert np.shares_memory(element.mat, scan.mats)
            assert np.array_equal(element.mat, scan.mats[k])
            pair = eig_hermitian(element)
            assert np.array_equal(pair.values, scan.spectra[k])
            assert np.array_equal(pair.vectors, scan.vectors[k])
        assert np.array_equal(scan.traces, np.trace(scan.mats, axis1=1, axis2=2).real)
        exp_sum = mat_exp(HermitianMatrix(x.mat + y.mat))
        assert np.array_equal(scan.mats[-1], exp_sum.mat)
        assert np.array_equal(scan.spectra[-1], eig_hermitian(exp_sum).values)
        for k, r in enumerate(grid):
            for one, index in ((phi(x, y, r), k), (psi(x, y, r), m + k)):
                assert np.array_equal(one.mat, scan.mats[index])
                for got, want in zip(eig_hermitian(one), (scan.spectra[index],
                                                          scan.vectors[index])):
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("grid", [(0.5,), (0.5, 1.0), DEFAULT_R_GRID],
                             ids=["R1", "R2", "R10"])
    def test_scan_wraps_only_the_exponential(self, monkeypatch, grid):
        # X + Y and e^{X+Y} are the scan's only matrix objects: phi and psi
        # stay in the stack, whatever R.
        x, y = random_hermitian(4, 7700, 0.5), random_hermitian(4, 7701, 0.5)
        wrapped = []
        wrap = HermitianMatrix._wrap.__func__

        def counted(cls, arr, pair=None):
            wrapped.append(cls)
            return wrap(cls, arr, pair)

        monkeypatch.setattr(HermitianMatrix, "_wrap", classmethod(counted))
        scan_chain(x, y, grid)
        assert wrapped == [HermitianMatrix, SpdMatrix]


class TestGoldenThompsonRefinement:
    def test_sandwich_rows(self):
        x = random_hermitian(4, 77, 0.5)
        y = random_hermitian(4, 88, 0.5)
        for r, lo, mid, hi in refinement_from_scan(scan_chain(x, y, (0.5, 1.0))):
            assert lo <= mid + 1e-12
            assert mid <= hi + 1e-12

    def test_r_one_upper_end_exact(self):
        x = random_hermitian(3, 7, 0.5)
        y = random_hermitian(3, 8, 0.5)
        r, _, mid, hi = refinement_from_scan(scan_chain(x, y, (0.5, 1.0)))[1]
        assert r == 1.0
        assert abs(mid - hi) <= 1e-10 * abs(hi)

    def test_rows_in_the_order_given(self):
        # One row per REFINEMENT_R value, in its order, whatever else the
        # scan's grid holds.
        assert REFINEMENT_R == (0.5, 1.0)
        x = random_hermitian(4, 77, 0.5)
        y = random_hermitian(4, 88, 0.5)
        rows = refinement_from_scan(scan_chain(x, y, (0.25, 0.5, 1.0, 2.0)))
        assert [row[0] for row in rows] == list(REFINEMENT_R)
        assert rows == refinement_from_scan(scan_chain(x, y, REFINEMENT_R))

    def test_rejects_out_of_range_r(self):
        x = random_hermitian(2, 9, 0.5)
        with pytest.raises(ParamOutOfRange, match="refinement r values"):
            refinement_from_scan(scan_chain(x, x, (2.0,)))

    def test_exponential_outside_the_spd_range_raises(self):
        # X + Y = 0, so phi, psi and e^{X+Y} would be I, but cond(e^{rX})
        # = e^30 at r = 1 is past the SPD range, and the scan raises.
        x, y = diag_h(15.0, -15.0), diag_h(-15.0, 15.0)
        with pytest.raises(DomainError, match=r"^e\^\{rX\} at r = 1 is not positive"):
            scan_chain(x, y, (0.5, 1.0))

    @pytest.mark.parametrize("x,y,grid,head", [
        ((2, 7000, 6.0), (2, 8000, 6.0), DEFAULT_R_GRID, "e^{rX} at r = 8"),
        ((2, 8000, 6.0), (2, 7000, 6.0), DEFAULT_R_GRID, "e^{rY} at r = 8"),
        ((3, 71, 0.5), (3, 72, 30.0), (0.5, 1.0, 2.0), "e^{rY} at r = 1"),
    ], ids=["x-at-8", "y-at-8", "y-at-1"])
    def test_spd_range_error_names_the_exponential_and_r(self, x, y, grid, head):
        # The message names the first failing exponential, X's before Y's,
        # and its r, then that exponential's eigenvalue range.
        x, y = random_hermitian(*x), random_hermitian(*y)
        with pytest.raises(DomainError) as caught:
            scan_chain(x, y, grid)
        assert str(caught.value).startswith(
            f"{head} is not positive definite to working precision: eigenvalues in [")

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_from_default_grid_scan_matches_own_scan(self, n):
        # The bits of a grid point do not depend on the rest of the grid.
        x = random_hermitian(n, 300 + n, 0.5)
        y = random_hermitian(n, 400 + n, 0.5)
        rows = refinement_from_scan(scan_chain(x, y))
        assert rows == refinement_from_scan(scan_chain(x, y, (0.5, 1.0)))

    def test_from_scan_rejects_r_off_grid_or_above_one(self):
        x = random_hermitian(3, 9, 0.5)
        y = random_hermitian(3, 10, 0.5)
        # A grid without 0.5, and one without 1.
        for grid in ((0.25, 1.0), (0.5, 2.0)):
            with pytest.raises(ParamOutOfRange, match="refinement r values"):
                refinement_from_scan(scan_chain(x, y, grid))

    def test_suite_chain_scans_each_pair_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return scan_chain(*args, **kwargs)

        monkeypatch.setattr(suites, "scan_chain", counted)
        monkeypatch.setattr(gtchain, "scan_chain", counted)
        assert suites.suite_chain(trials=3, seed=1).passed
        assert len(calls) == 3


def _row_by_row_checks(scan):
    """The checks of ``evaluate_chain``, in report order: each
    log-majorization check from one ``log_majorization_report``, then each
    trace check from its own subtraction."""
    m = len(scan.r_grid)
    phis, psis, mid = scan.spectra[:m], scan.spectra[m:-1], scan.spectra[-1]
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
    traces = scan.traces.tolist()
    tr_phi, tr_psi, tr_mid = traces[:m], traces[m:-1], [traces[-1]] * m
    tol = default_tol(np.array(tr_phi + tr_psi + tr_mid))
    for r, tp, ts, te in zip(scan.r_grid, tr_phi, tr_psi, tr_mid):
        out.append(("trace_phi_below", r, te - tp, tol))
        out.append(("trace_psi_above", r, ts - te, tol))
    for k, r in enumerate(scan.r_grid[1:], start=1):
        out.append(("trace_phi_decreasing", r, -(tr_phi[k] - tr_phi[k - 1]), tol))
    for k, r in enumerate(scan.r_grid[1:], start=1):
        out.append(("trace_psi_increasing", r, tr_psi[k] - tr_psi[k - 1], tol))
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
        moduli = replace(scan, spectra=np.array(
            [hyperbolic_spectrum(scan.element(k)) for k in range(len(scan.mats))]))
        for case in (scan, moduli):
            ref = _row_by_row_checks(case)
            assert len(ref) == 2 * (4 * len(grid) - 2)
            rep = evaluate_chain(case)
            got = list(zip([CHAIN_FAMILIES[f] for f in rep.family], *(
                col.tolist() for col in (rep.r, rep.margin, rep.tol))))
            assert got == ref

    def test_zero_modulus_override_raises(self):
        x, y = _chain_pair("glc", 3, 7400)
        scan = scan_chain(x, y)
        spectra = scan.spectra.copy()
        spectra[4, -1] = 0.0
        with pytest.raises(NonPositiveEntry):
            evaluate_chain(replace(scan, spectra=spectra))

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


def _per_check_chain_rows(report):
    """The family rows of ``suites._chain_rows`` by a loop over the checks:
    per family the check of least margin + tol, the first on a tie (strict
    <), rows sorted by family name."""
    tightest: dict = {}
    columns = (report.family, report.r, report.margin, report.tol)
    for f, r, margin, tol in zip(*(col.tolist() for col in columns)):
        name = CHAIN_FAMILIES[f]
        cur = tightest.get(name)
        if cur is None or margin + tol < cur[0] + cur[1]:
            tightest[name] = (margin, tol)
    return [(None, name, margin >= -tol, margin)
            for name, (margin, tol) in sorted(tightest.items())]


class TestChainRows:
    """suites._chain_rows reads the tightest check of each family off the
    report's arrays."""

    @staticmethod
    def _rows_and_report(monkeypatch, seed, n):
        reports = []

        def recorded(scan):
            reports.append(evaluate_chain(scan))
            return reports[-1]

        monkeypatch.setattr(suites, "evaluate_chain", recorded)
        rows = list(suites._chain_rows(seed, 0, n))
        return rows[:len(CHAIN_FAMILIES)], reports[0]

    @pytest.mark.parametrize("realization", ["glc", "slr"])
    def test_rows_match_a_per_check_reference(self, monkeypatch, realization):
        sample = {"glc": random_hermitian, "slr": random_real_symmetric_traceless}[realization]
        monkeypatch.setattr(suites, "random_hermitian", sample)
        for seed in range(10):
            for n in range(2, 7):
                rows, report = self._rows_and_report(monkeypatch, seed, n)
                assert rows == _per_check_chain_rows(report), (seed, n)
                assert [row[1] for row in rows] == sorted(CHAIN_FAMILIES)

    def test_tie_reports_the_first_check(self, monkeypatch):
        # Two phi_below_exp_sum checks tie on margin + tol = 0.25, every
        # other check of the family has more slack: the first of the two
        # (margin 0.0) is the row, not the later one nor the lesser margin.
        def tied(scan):
            report = evaluate_chain(scan)
            family = np.flatnonzero(report.family == 0)
            report.margin[family], report.tol[family] = 1.0, 0.0
            report.margin[family[[2, 5]]] = 0.0, -0.25
            report.tol[family[[2, 5]]] = 0.25, 0.5
            return report

        monkeypatch.setattr(suites, "evaluate_chain", tied)
        rows = {row[1]: row for row in suites._chain_rows(0, 0, 3)}
        assert rows["phi_below_exp_sum"] == (None, "phi_below_exp_sum", True, 0.0)

    def test_report_holds_passed_and_worst(self):
        report = ChainReport(family=np.zeros(4, dtype=int), r=np.array([0.5, 1.0, 2.0, 4.0]),
                             margin=np.array([1.0, 0.0, -0.25, -0.75]),
                             tol=np.array([0.0, 0.25, 0.5, 0.5]))
        assert report.holds.tolist() == [True, True, True, False]
        assert report.passed is False
        assert report.worst == 3
        report.margin[3] = 0.0
        assert report.passed is True
        # Checks 1 and 2 tie on margin + tol = 0.25: the first is the worst.
        assert report.worst == 1
