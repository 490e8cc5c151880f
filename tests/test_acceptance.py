"""Acceptance criteria, one test per criterion at its contract scale.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with its runtime against the stated budget.
"""

import math
import subprocess
import sys
import time

import numpy as np

from spdmeans import (
    SpdMatrix,
    eig_hermitian,
    geometric_mean,
    gtchain,
    loewner_leq,
    log_majorizes,
    orbit,
    spectral_mean,
    suites,
)
from spdmeans.linalg import HermitianMatrix


def _report(name: str, passed: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {elapsed:.1f}s (budget {budget:.0f}s)")


def test_criterion_diagonal_counterexample_goldens():
    assert suites.EXACT_TOL == 1e-12
    budget = 1.0
    start = time.perf_counter()
    a = SpdMatrix(np.diag([16.0, 1.0]))
    b1 = SpdMatrix(np.diag([2.0, 4.0]))
    b2 = SpdMatrix(np.diag([1.0, 8.0]))
    ok = log_majorizes(eig_hermitian(b1).values, eig_hermitian(b2).values)
    s1 = geometric_mean(a, b1, 0.5)
    s2 = geometric_mean(a, b2, 0.5)
    ok &= np.abs(s1.mat - np.diag([4.0 * math.sqrt(2.0), 2.0])).max() <= 1e-12
    ok &= np.abs(s2.mat - np.diag([4.0, 2.0 * math.sqrt(2.0)])).max() <= 1e-12
    ok &= not log_majorizes(eig_hermitian(s1).values, eig_hermitian(s2).values)
    elapsed = time.perf_counter() - start
    _report("diagonal counterexample goldens", ok and elapsed < budget, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_order_counterexample_goldens():
    assert suites.GOLDEN_TOL == 5e-5
    budget = 1.0
    start = time.perf_counter()
    a = SpdMatrix([[6.0, -3.0], [-3.0, 4.0]])
    b = SpdMatrix([[4.0, -2.0], [-2.0, 5.0]])
    sharp = geometric_mean(a, b, 0.5)
    natural = spectral_mean(a, b, 0.5)
    ok = (
        np.abs(sharp.mat - np.array([[4.8990, -2.4495], [-2.4495, 4.3870]])).max()
        <= 5e-5
    )
    ok &= (
        np.abs(natural.mat - np.array([[4.8992, -2.4896], [-2.4896, 4.4273]])).max()
        <= 5e-5
    )
    lam = np.sort(eig_hermitian(HermitianMatrix(natural.mat - sharp.mat)).values)
    ok &= np.abs(lam - np.array([-0.0246, 0.0651])).max() <= 5e-5
    ok &= not loewner_leq(sharp, natural)
    ok &= log_majorizes(eig_hermitian(sharp).values, eig_hermitian(natural).values)
    elapsed = time.perf_counter() - start
    _report("order counterexample goldens", ok and elapsed < budget, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_log_majorization_suite():
    assert suites.LOGMAJ_T_GRID == tuple(k / 10.0 for k in range(11))
    assert (suites.LOGMAJ_MARGIN_TOL, suites.DET_TOL) == (1e-8, 1e-10)
    budget = 60.0
    start = time.perf_counter()
    result = suites.suite_log_majorization(
        trials=1000, seed=42, n_values=(2, 3, 4, 5, 6, 7, 8)
    )
    elapsed = time.perf_counter() - start
    _report(
        "log-majorization of means suite (1000 pairs)",
        result.passed and elapsed < budget,
        elapsed,
        budget,
    )
    assert result.passed, result.failures[:5]
    assert elapsed < budget


def test_criterion_compound_identities():
    assert (suites.COMPOUND_T, suites.COMPOUND_TOL) == (0.7, 1e-10)
    budget = 30.0
    start = time.perf_counter()
    result = suites.suite_compound(trials=100, seed=42, n=4, k_values=(2, 3))
    elapsed = time.perf_counter() - start
    _report(
        "compound identities (100 pairs)",
        result.passed and elapsed < budget,
        elapsed,
        budget,
    )
    assert result.passed, result.failures[:5]
    assert elapsed < budget


def test_criterion_chain_suite():
    assert gtchain.DEFAULT_R_GRID == tuple(2.0 ** k for k in range(-6, 4))
    assert (gtchain.ROUNDOFF_BAND, gtchain.REFINEMENT_R) == (10.0, (0.5, 1.0))
    assert (suites.CHAIN_SCALE, suites.SANDWICH_TOL) == (0.5, 1e-10)
    budget = 120.0
    start = time.perf_counter()
    result = suites.suite_chain(trials=200, seed=42, n_values=(2, 3, 4, 5, 6))
    elapsed = time.perf_counter() - start
    _report(
        "Golden-Thompson chain suite (200 pairs)",
        result.passed and elapsed < budget,
        elapsed,
        budget,
    )
    assert result.passed, result.failures[:5]
    assert elapsed < budget


def test_criterion_orbit_solver():
    assert orbit.TARGET_KINDS == ("exp_product", "geometric", "spectral")
    assert (orbit.ORBIT_TOL, orbit.MAX_ITER, orbit.MAX_RESTARTS) == (1e-8, 5000, 4)
    assert (orbit.MEMBERSHIP_TOL, orbit.MEMBERSHIP_RESIDUAL) == (1e-10, (10.0, 1e-7))
    assert suites.TRACE_GAP_TOL == 1e-10
    budget = 600.0
    start = time.perf_counter()
    complex_result = suites.suite_orbit(
        instances=50, seed=42, n_values=(2, 3, 4, 5, 6), realization="glc"
    )
    real_result = suites.suite_orbit(
        instances=50, seed=42, n_values=(2, 3, 4, 5, 6), realization="slr"
    )
    elapsed = time.perf_counter() - start
    ok = complex_result.passed and real_result.passed
    _report(
        "orbit-sum solver (50/kind/n, both realizations)",
        ok and elapsed < budget,
        elapsed,
        budget,
    )
    assert complex_result.passed, complex_result.failures[:5]
    assert real_result.passed, real_result.failures[:5]
    assert elapsed < budget


def test_criterion_mean_identity_suite():
    assert suites.IDENTITY_GRIDS == (
        (0.0, 0.25, 0.5, 0.75, 1.0),
        (0.0, 0.1, 0.25, 0.4, 0.5),
        (0.0, 0.1, 0.25, 0.4, 0.5),
    )
    assert suites.IDENTITY_TOL == 1e-10
    budget = 60.0
    start = time.perf_counter()
    result = suites.suite_mean_identities(trials=200, seed=42, n_values=(2, 3, 4, 5, 6))
    elapsed = time.perf_counter() - start
    _report(
        "mean-identity suite (200 pairs, 5-point grids)",
        result.passed and elapsed < budget,
        elapsed,
        budget,
    )
    assert result.passed, result.failures[:5]
    assert elapsed < budget


def test_criterion_gradient_correctness():
    assert (suites.GRADCHECK_EPS, suites.GRADCHECK_TOL) == (1e-3, 1e-4)
    budget = 10.0
    start = time.perf_counter()
    result = suites.suite_gradient_check(trials=100, seed=42)
    elapsed = time.perf_counter() - start
    _report(
        "gradient finite-difference check (100 triples)",
        result.passed and elapsed < budget,
        elapsed,
        budget,
    )
    assert result.passed, result.failures[:5]
    assert elapsed < budget


def test_criterion_determinism(tmp_path):
    # verify --all also runs the kostant and realization suites, which no
    # other criterion runs; their constants are pinned here.
    assert suites.CONJUGATION_TOL == 1e-9
    assert suites.UNIT_DET_TOL == 1e-8
    assert suites.REALIZATION_R_GRID == tuple(2.0 ** k for k in range(-3, 2))
    assert suites.REALIZATION_TRIPLE == (0.3, 0.25, 0.5)
    budget = 300.0
    start = time.perf_counter()
    payloads = []
    for run in range(2):
        out = tmp_path / f"acc_report_{run}.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "spdmeans.cli",
                "verify", "--all", "--seed", "42", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payloads.append((out.read_bytes(), proc.stdout))
    ok = payloads[0] == payloads[1]
    elapsed = time.perf_counter() - start
    _report("determinism of verify --all --seed 42", ok, elapsed, budget)
    assert ok
