import numpy as np
import pytest

from spdmeans import (
    ComplexMatrix,
    SingularInput,
    SpdMatrix,
    eig_hermitian,
    evaluate_chain,
    geometric_mean,
    group_chain_report,
    hyperbolic_spectrum,
    kostant_leq,
    kostant_report,
    log_majorizes,
    random_hermitian,
    random_invertible,
    random_spd,
    random_unitary,
    scan_chain,
    spectral_mean,
)


class TestHyperbolicSpectrum:
    def test_spd_is_its_own_spectrum(self):
        p = random_spd(4, 1)
        assert np.abs(
            hyperbolic_spectrum(ComplexMatrix(p.mat)) - eig_hermitian(p).values
        ).max() < 1e-12

    def test_unitary_all_ones(self):
        u = random_unitary(5, 2)
        assert np.abs(hyperbolic_spectrum(ComplexMatrix(u.mat)) - 1.0).max() < 1e-10

    def test_unipotent_all_ones(self):
        g = ComplexMatrix([[1.0, 1.0], [0.0, 1.0]])
        assert np.array_equal(hyperbolic_spectrum(g), [1.0, 1.0])

    def test_singular_rejected(self):
        with pytest.raises(SingularInput):
            hyperbolic_spectrum(ComplexMatrix(np.diag([1.0, 0.0])))

    def test_conjugation_invariant(self):
        for seed in range(10):
            g = random_invertible(5, 100 + seed)
            s = random_invertible(5, 200 + seed)
            conj = ComplexMatrix(s.mat @ g.mat @ np.linalg.inv(s.mat))
            h1 = hyperbolic_spectrum(g)
            h2 = hyperbolic_spectrum(conj)
            assert np.abs(h1 - h2).max() <= 1e-9 * h1.max()


class TestKostantLeq:
    def test_reflexive(self):
        g = random_invertible(4, 3)
        assert kostant_leq(g, g)

    def test_diagonal_arithmetic(self):
        f = ComplexMatrix(np.diag([2.0, 2.0]))
        g = ComplexMatrix(np.diag([4.0, 1.0]))
        assert kostant_leq(f, g)
        assert not kostant_leq(g, f)

    def test_sharp_below_natural(self):
        for trial in range(25):
            n = 2 + trial % 5
            a = random_spd(n, 1000 + trial)
            b = random_spd(n, 2000 + trial)
            t = (trial % 11) / 10.0
            f = ComplexMatrix(geometric_mean(a, b, t).mat)
            g = ComplexMatrix(spectral_mean(a, b, t).mat)
            assert kostant_leq(f, g)

    def test_spd_agreement_with_log_majorization(self):
        for trial in range(25):
            n = 2 + trial % 4
            a = random_spd(n, 3000 + trial)
            b = random_spd(n, 4000 + trial)
            lam_a = eig_hermitian(a).values
            lam_b = eig_hermitian(b).values
            assert kostant_leq(
                ComplexMatrix(a.mat), ComplexMatrix(b.mat)
            ) == log_majorizes(lam_a, lam_b)

    def test_report_margins(self):
        f = ComplexMatrix(np.diag([2.0, 2.0]))
        g = ComplexMatrix(np.diag([4.0, 1.0]))
        rep = kostant_report(f, g)
        assert rep.holds
        assert rep.partial_margins[0] == pytest.approx(np.log(2.0))
        assert rep.total_gap < 1e-12


class TestGroupChain:
    def test_agreement_on_scans(self):
        for trial in range(8):
            n = 2 + trial % 4
            x = random_hermitian(n, 500 + trial, 0.5)
            y = random_hermitian(n, 600 + trial, 0.5)
            scan = scan_chain(x, y)
            report, agree = group_chain_report(scan, evaluate_chain(scan))
            assert agree
            assert report.passed

    def test_commuting_degenerates(self):
        x = random_hermitian(3, 7, 0.5)
        scan = scan_chain(x, x)
        report, agree = group_chain_report(scan, evaluate_chain(scan))
        assert agree and report.passed

    def test_suite_chain_evaluates_each_scan_twice(self, monkeypatch):
        # Once with eigenvalues in suite_chain, once with moduli in
        # group_chain_report, which takes the first report from its caller.
        from spdmeans import kostant, suites

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return evaluate_chain(*args, **kwargs)

        monkeypatch.setattr(suites, "evaluate_chain", counted)
        monkeypatch.setattr(kostant, "evaluate_chain", counted)
        assert suites.suite_chain(trials=4, seed=1).passed
        assert len(calls) == 8
