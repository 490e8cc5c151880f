"""Batch verification suites.

Each suite is a deterministic function of its seed and size parameters and
returns a ``SuiteResult``: the suite's name and seed plus one ``Row`` per
checked property, written by ``write_report`` as the CSV columns
``suite,seed,trial,n,t,property,status,margin``.  ``run_suite`` calls each
suite at CLI scale; the acceptance tests call them at their contract scales.

A suite is one call of the runner ``_run`` on its cases and its row
function.  A case is (trial, n, *extra), in report order; ``_cycle`` gives
the cases (trial, n) with n cycling through the suite's sizes.  The row
function ``_<suite>_rows(seed, trial, n, *extra)`` draws the case's inputs
from its own seed formula and yields (t, property, passed, margin) per
row, so the rows of one case recompute from that case alone.

The suites take sizes and seeds only.  Every grid, tolerance and budget
they read is one named constant, defined here unless a module is named, and
each check has one pass rule:

    constant                   value          read by
    GOLDEN_T                   0.5            counterexamples
    GOLDEN_TOL                 5e-5           counterexamples (printed values)
    EXACT_TOL                  1e-12          counterexamples (exact values)
    LOGMAJ_T_GRID              0, 0.1, .., 1  log_majorization
    LOGMAJ_MARGIN_TOL          1e-8           log_majorization, realization
    DET_TOL                    1e-10          log_majorization
    COMPOUND_T                 0.7            compound
    majorization.COMPOUND_TOL  1e-10          compound
    IDENTITY_GRIDS             (t, r, s)      mean_identities
    means.IDENTITY_TOL         1e-10          mean_identities, realization
    gtchain.DEFAULT_R_GRID     2^-6, .., 2^3  chain
    gtchain.ROUNDOFF_BAND      10             chain, realization
    CHAIN_SCALE                0.5            chain, realization
    SANDWICH_TOL               1e-10          chain (refinement sandwich)
    gtchain.REFINEMENT_R       0.5, 1         chain (refinement sandwich)
    orbit.TARGET_KINDS         three kinds    orbit, gradient_check, realization
    TRACE_GAP_TOL              1e-10          orbit (trace condition)
    orbit.ORBIT_TOL            1e-8           orbit, realization
    orbit.MAX_ITER             5000           orbit, realization
    orbit.MAX_RESTARTS         4              orbit, realization
    orbit.MEMBERSHIP_TOL       1e-10          orbit, realization (spectra)
    orbit.MEMBERSHIP_RESIDUAL  10, 1e-7       orbit, realization (residual)
    GRADCHECK_EPS              1e-3           gradient_check
    GRADCHECK_TOL              1e-4           gradient_check
    LOEWNER_T_GRID             0, 0.1, .., 1  loewner (trial k at t[k % 11])
    CONJUGATION_TOL            1e-9           kostant
    UNIT_DET_TOL               1e-8           realization
    REALIZATION_R_GRID         2^-3, .., 2^1  realization (chain)
    REALIZATION_TRIPLE         (0.3, .25, .5) realization (identity laws)
    REALIZATION_LOGMAJ_T       0.5            realization (log-majorization)

A log-majorization row passes iff its worst margin is at least
-LOGMAJ_MARGIN_TOL in log_majorization and realization, within
``MajorizationReport.holds`` (``majorization.default_tol``) in
counterexamples and kostant's spd_agreement, and within ROUNDOFF_BAND times
that tolerance in chain and in realization's chain row.  An orbit solve
passes iff ``solve_passes`` says so, in every suite that checks one and in
the orbit probes under tests/.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MaxIterReached
from .gtchain import (
    CHAIN_FAMILIES,
    DEFAULT_R_GRID,
    evaluate_chain,
    refinement_from_scan,
    scan_chain,
    trotter_distances,
)
from .kostant import group_chain_report, hyperbolic_spectrum, kostant_leq
from .linalg import (
    ComplexMatrix,
    HermitianMatrix,
    SpdMatrix,
    UnitaryMatrix,
    eig_hermitian,
    mat_exp,
)
from .majorization import (
    COMPOUND_TOL,
    compound_mean_reports,
    log_majorization_margins,
    log_majorization_report,
    log_majorizes,
)
from .means import (
    IDENTITY_NAMES,
    IDENTITY_TOL,
    _IdentityContext,
    _MeanPair,
    geometric_mean,
    loewner_leq,
    rel_residual,
    spd_det,
    spectral_mean,
)
from .orbit import (
    MAX_RESTARTS, ORBIT_TOL, TARGET_KINDS, OrbitProblem, OrbitSolution, _cayley,
    objective, riemannian_grad, solve, verify_membership,
)
from .realizations import REALIZATIONS, run_suites_on_realization
from .sampling import random_hermitian, random_invertible, random_spd, random_unitary

GOLDEN_T = 0.5
GOLDEN_TOL = 5e-5  # half-ulp of values printed to four decimals
EXACT_TOL = 1e-12
LOGMAJ_T_GRID = tuple(k / 10.0 for k in range(11))
LOGMAJ_MARGIN_TOL = 1e-8
DET_TOL = 1e-10
COMPOUND_T = 0.7
IDENTITY_GRIDS = (
    (0.0, 0.25, 0.5, 0.75, 1.0),
    (0.0, 0.1, 0.25, 0.4, 0.5),
    (0.0, 0.1, 0.25, 0.4, 0.5),
)
CHAIN_SCALE = 0.5
SANDWICH_TOL = 1e-10
TRACE_GAP_TOL = 1e-10
GRADCHECK_EPS = 1e-3
GRADCHECK_TOL = 1e-4
LOEWNER_T_GRID = tuple(k / 10.0 for k in range(11))
CONJUGATION_TOL = 1e-9
UNIT_DET_TOL = 1e-8  # |det - 1| of the exponentials of traceless inputs
REALIZATION_R_GRID = tuple(2.0 ** k for k in range(-3, 2))
REALIZATION_TRIPLE = (0.3, 0.25, 0.5)
REALIZATION_LOGMAJ_T = 0.5


@dataclass
class Row:
    suite: str
    seed: int
    trial: int
    n: int
    t: float | None
    prop: str
    passed: bool
    margin: float

    def as_csv(self) -> str:
        t_str = "" if self.t is None else f"{self.t:.6g}"
        status = "pass" if self.passed else "fail"
        return (
            f"{self.suite},{self.seed},{self.trial},{self.n},{t_str},"
            f"{self.prop},{status},{self.margin:.12e}"
        )


@dataclass
class SuiteResult:
    name: str
    seed: int = 0
    rows: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def failures(self) -> list:
        return [r for r in self.rows if not r.passed]


CSV_HEADER = "suite,seed,trial,n,t,property,status,margin"
CSV_SCHEMA_COMMENT = "# spdmeans-report v1"


def write_report(path, results) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(CSV_SCHEMA_COMMENT + "\n")
        fh.write(CSV_HEADER + "\n")
        for result in results:
            for row in result.rows:
                fh.write(row.as_csv() + "\n")


def _run(name: str, seed: int, cases, rows) -> SuiteResult:
    """The suite ``name`` at ``seed``: for each case (trial, n, *extra) of
    ``cases`` in order, one ``Row`` per (t, property, passed, margin) that
    ``rows(seed, trial, n, *extra)`` yields."""
    return SuiteResult(name, seed, [Row(name, seed, case[0], case[1], *row)
                                    for case in cases for row in rows(seed, *case)])


def _cycle(trials: int, n_values) -> list:
    """The cases (trial, n) of ``trials`` trials, n cycling through n_values."""
    return [(trial, n_values[trial % len(n_values)]) for trial in range(trials)]


def _spd_pair(n: int, seed: int, trial: int):
    a = random_spd(n, seed * 1_000_003 + 2 * trial)
    b = random_spd(n, seed * 1_000_003 + 2 * trial + 1)
    return a, b


def _golden_rows(seed, trial, n):
    a = SpdMatrix(np.diag([16.0, 1.0]))
    b1 = SpdMatrix(np.diag([2.0, 4.0]))
    b2 = SpdMatrix(np.diag([1.0, 8.0]))
    lam_b1 = eig_hermitian(b1).values
    lam_b2 = eig_hermitian(b2).values
    yield GOLDEN_T, "inputs_log_majorized", log_majorizes(lam_b1, lam_b2), 0.0
    s1 = geometric_mean(a, b1, GOLDEN_T)
    s2 = geometric_mean(a, b2, GOLDEN_T)
    d1 = rel_residual(s1.mat, np.diag([4.0 * math.sqrt(2.0), 2.0]))
    d2 = rel_residual(s2.mat, np.diag([4.0, 2.0 * math.sqrt(2.0)]))
    yield GOLDEN_T, "sharp_b1_exact", d1 <= EXACT_TOL, d1
    yield GOLDEN_T, "sharp_b2_exact", d2 <= EXACT_TOL, d2
    apart = not log_majorizes(eig_hermitian(s1).values, eig_hermitian(s2).values)
    yield GOLDEN_T, "means_not_log_majorized", apart, 0.0

    a = SpdMatrix([[6.0, -3.0], [-3.0, 4.0]])
    b = SpdMatrix([[4.0, -2.0], [-2.0, 5.0]])
    sharp = geometric_mean(a, b, GOLDEN_T)
    natural = spectral_mean(a, b, GOLDEN_T)
    sharp_ref = np.array([[4.8990, -2.4495], [-2.4495, 4.3870]])
    natural_ref = np.array([[4.8992, -2.4896], [-2.4896, 4.4273]])
    ds = float(np.abs(sharp.mat - sharp_ref).max())
    dn = float(np.abs(natural.mat - natural_ref).max())
    yield GOLDEN_T, "sharp_matches_print", ds <= GOLDEN_TOL, ds
    yield GOLDEN_T, "natural_matches_print", dn <= GOLDEN_TOL, dn
    diff = HermitianMatrix(natural.mat - sharp.mat)
    lam = eig_hermitian(diff).values
    gap = float(np.abs(np.sort(lam) - np.sort(np.array([0.0651, -0.0246]))).max())
    yield GOLDEN_T, "difference_eigenvalues", gap <= GOLDEN_TOL, gap
    yield GOLDEN_T, "loewner_fails", not loewner_leq(sharp, natural), 0.0
    lm = log_majorization_report(
        eig_hermitian(sharp).values, eig_hermitian(natural).values
    )
    yield GOLDEN_T, "log_majorization_holds", lm.holds, lm.worst_margin


def suite_counterexample_goldens(seed: int = 0) -> SuiteResult:
    """The two printed counterexample pairs, checked to half-ulp of 4 decimals."""
    return _run("counterexamples", seed, [(0, 2)], _golden_rows)


def _log_majorization_rows(seed, trial, n):
    ts = np.asarray(LOGMAJ_T_GRID, dtype=float)
    a, b = _spd_pair(n, seed, trial)
    lam_sharp, lam_nat = _MeanPair(a, b).spectra(ts)
    worst_margin = float(log_majorization_margins(lam_sharp, lam_nat)[0].min())
    target = spd_det(a) ** (1.0 - ts) * spd_det(b) ** ts
    dets = np.prod([lam_sharp, lam_nat], axis=-1)
    worst_det = float((np.abs(dets - target) / np.abs(target)).max())
    yield None, "sharp_log_majorized_by_natural", worst_margin >= -LOGMAJ_MARGIN_TOL, worst_margin
    yield None, "determinant_equality", worst_det <= DET_TOL, worst_det


def suite_log_majorization(trials: int = 100, seed: int = 0,
                           n_values=(2, 3, 4, 5, 6, 7, 8)) -> SuiteResult:
    """lambda(A #_t B) <_log lambda(A @_t B) plus the determinant law, over
    LOGMAJ_T_GRID."""
    return _run("log_majorization", seed, _cycle(trials, n_values), _log_majorization_rows)


def _compound_rows(seed, trial, n, k_values):
    t, tol = COMPOUND_T, COMPOUND_TOL
    a, b = _spd_pair(n, seed + 7919, trial)
    lam_a = eig_hermitian(a).values
    for ca, rep in compound_mean_reports(a, b, t, k_values):
        k, sharp, natural = rep.k, rep.sharp_residual, rep.natural_residual
        yield t, f"sharp_commutes_k{k}", sharp <= tol, sharp
        yield t, f"natural_commutes_k{k}", natural <= tol, natural
        top = eig_hermitian(ca).values[0]
        target = float(np.prod(lam_a[:k]))
        err = abs(top - target) / abs(target)
        yield None, f"top_eig_product_k{k}", err <= tol, err


def suite_compound(trials: int = 100, seed: int = 0, n: int = 4, k_values=(2, 3)) -> SuiteResult:
    """Compound-mean commutation at COMPOUND_T and the top-eigenvalue product
    identity."""
    return _run("compound", seed, [(trial, n, k_values) for trial in range(trials)],
                _compound_rows)


def _mean_identities_rows(seed, trial, n):
    a, b = _spd_pair(n, seed + 104729, trial)
    table = _IdentityContext(a, b).residuals(*IDENTITY_GRIDS)
    for name, worst in zip(IDENTITY_NAMES, table.max(axis=0).tolist()):
        yield None, name, worst <= IDENTITY_TOL, worst


def suite_mean_identities(trials: int = 100, seed: int = 0,
                          n_values=(2, 3, 4, 5, 6)) -> SuiteResult:
    """Every identity law on the (t, r, s) grid IDENTITY_GRIDS; one row per
    (pair, law)."""
    return _run("mean_identities", seed, _cycle(trials, n_values), _mean_identities_rows)


def _chain_rows(seed, trial, n):
    x = random_hermitian(n, seed * 99991 + 2 * trial, CHAIN_SCALE)
    y = random_hermitian(n, seed * 99991 + 2 * trial + 1, CHAIN_SCALE)
    scan = scan_chain(x, y, DEFAULT_R_GRID)
    chain_rep = evaluate_chain(scan)
    slack, holds = chain_rep.margin + chain_rep.tol, chain_rep.holds
    for name in sorted(CHAIN_FAMILIES):
        family = np.flatnonzero(chain_rep.family == CHAIN_FAMILIES.index(name))
        k = family[np.argmin(slack[family])]
        yield None, name, bool(holds[k]), float(chain_rep.margin[k])
    # Lie-Trotter: the distance to e^{X+Y} at the smallest grid r is
    # below the one at the largest.  Step-by-step decrease is no theorem.
    dists = trotter_distances(scan)
    yield None, "trotter_phi_shrinks", dists[0][1] < dists[-1][1], 0.0
    yield None, "trotter_psi_shrinks", dists[0][2] < dists[-1][2], 0.0
    for r, lo, mid, hi in refinement_from_scan(scan):
        ok = lo <= mid + SANDWICH_TOL and mid <= hi + SANDWICH_TOL
        yield r, "gt_refinement_sandwich", ok, min(mid - lo, hi - mid)
    _, agree = group_chain_report(scan, chain_rep)
    yield None, "kostant_agreement", agree, 0.0


def suite_chain(trials: int = 50, seed: int = 0, n_values=(2, 3, 4, 5, 6)) -> SuiteResult:
    """Chain monotonicity, sandwich, traces, Lie-Trotter shrinkage, the
    Golden-Thompson refinement at r = 0.5 and 1 and the group-comparator
    agreement, per random Hermitian pair of scale CHAIN_SCALE, all from one
    scan over DEFAULT_R_GRID.  Each chain predicate family gives one row:
    its check with the least slack."""
    return _run("chain", seed, _cycle(trials, n_values), _chain_rows)


def solve_passes(realization: str, prob: OrbitProblem, sol: OrbitSolution) -> bool:
    """Whether sol solves prob in the realization: the residual is at most
    ORBIT_TOL, the objective trace is monotone, the restarts are within
    MAX_RESTARTS, ``verify_membership`` holds and both factors lie in the
    realization's K."""
    space = REALIZATIONS[realization]
    trace = sol.objective_trace
    mono = all(later <= earlier for earlier, later in zip(trace, trace[1:]))
    return (sol.residual <= ORBIT_TOL and mono and sol.restarts <= MAX_RESTARTS
            and verify_membership(sol, prob)
            and space.contains(sol.u.mat) and space.contains(sol.v.mat))


def orbit_verdict(realization: str, prob: OrbitProblem, seed: int) -> tuple[bool, float]:
    """Solve prob in the realization and judge the solve by ``solve_passes``:
    (passed, residual).  A solve that stops above tolerance
    (``MaxIterReached``) fails with its best residual."""
    try:
        sol = solve(prob, seed=seed, realization=realization)
    except MaxIterReached as exc:
        return False, exc.solution.residual
    return solve_passes(realization, prob, sol), sol.residual


def _orbit_rows(seed, inst, n, kind, realization, base, x, y):
    prob = OrbitProblem.create(x, y, kind)
    tr_z = float(np.trace(prob.z.mat).real)
    tr_gap = abs(tr_z - float(np.trace(x.mat).real) - float(np.trace(y.mat).real))
    yield None, f"{kind}_trace_condition", tr_gap <= TRACE_GAP_TOL * max(1.0, abs(tr_z)), tr_gap
    yield None, f"{kind}_solved", *orbit_verdict(realization, prob, base)


def suite_orbit(instances: int = 10, seed: int = 0, n_values=(2, 3, 4, 5, 6),
                realization: str = "glc") -> SuiteResult:
    """Orbit-sum solves of every target kind: the trace condition, then
    ``solve_passes`` (residual, monotone trace, restart budget, eigenvalue
    preservation, factors in K).  Cases run kind-major, and the three kinds
    share each (n, instance)'s pair and solve seed, carried in the case."""
    space = REALIZATIONS[realization]
    draws = {}  # (n, instance) -> (base, X, Y), drawn once for every kind
    for n in n_values:
        for inst in range(instances):
            base = seed * 7 + 1009 * inst + 13 * n
            draws[n, inst] = base, space.sample(n, base, 1.0), space.sample(n, base + 500009, 1.0)
    cases = [(inst, n, kind, realization, *draws[n, inst])
             for kind in TARGET_KINDS for n in n_values for inst in range(instances)]
    return _run(f"orbit_{realization}", seed, cases, _orbit_rows)


def _gradient_check_rows(seed, trial, n):
    eps = GRADCHECK_EPS
    kind = TARGET_KINDS[trial % len(TARGET_KINDS)]
    base = seed + 31 * trial
    x = random_hermitian(n, base, 1.0)
    y = random_hermitian(n, base + 17, 1.0)
    prob = OrbitProblem.create(x, y, kind)
    u = random_unitary(n, base + 3)
    v = random_unitary(n, base + 4)
    k_u, k_v = riemannian_grad(u, v, prob)
    rng = np.random.default_rng(base + 5)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (g - g.conj().T) / 2.0

    def f(step):
        return objective(UnitaryMatrix(_cayley(k, -step) @ u.mat), v, prob)

    fd = (8.0 * (f(eps) - f(-eps)) - (f(2.0 * eps) - f(-2.0 * eps))) / (12.0 * eps)
    inner = float(np.real(np.sum(np.conj(k) * k_u)))
    err = abs(fd - inner) / max(abs(inner), 1e-300)
    yield None, f"{kind}_fd_match", err <= GRADCHECK_TOL, err


def suite_gradient_check(trials: int = 100, seed: int = 0) -> SuiteResult:
    """Directional derivatives against the five-point central difference
    (8 (f(h) - f(-h)) - (f(2h) - f(-2h))) / 12h, h = GRADCHECK_EPS, of f
    along the solver's Cayley curve, on random triples: fourth order in h,
    so h can be large enough that rounding in f stays far below
    GRADCHECK_TOL."""
    return _run("gradient_check", seed, _cycle(trials, (2, 3, 4, 5, 6)), _gradient_check_rows)


def _kostant_rows(seed, trial, n):
    base = seed + 37 * trial
    a, b = _spd_pair(n, seed + 11, trial)
    lam_a = eig_hermitian(a).values
    lam_b = eig_hermitian(b).values
    ga = HermitianMatrix(a.mat)
    gb = HermitianMatrix(b.mat)
    agree = kostant_leq(ga, gb) == log_majorizes(lam_a, lam_b) and kostant_leq(
        gb, ga
    ) == log_majorizes(lam_b, lam_a)
    yield None, "spd_agreement", agree, 0.0
    yield None, "reflexive", kostant_leq(ga, ga), 0.0
    g = random_invertible(n, base)
    s = random_invertible(n, base + 1)
    h1 = hyperbolic_spectrum(g)
    h2 = hyperbolic_spectrum(
        ComplexMatrix(s.mat @ g.mat @ np.linalg.inv(s.mat))
    )
    err = float(np.abs(h1 - h2).max()) / float(h1.max())
    yield None, "conjugation_invariance", err <= CONJUGATION_TOL, err
    # Transitivity on a witnessed chain p <= p#q <= q ordering by det-1
    # scaling: use scalar multiples to manufacture comparable elements.
    sharp = geometric_mean(a, b, 0.5)
    lam_mid = eig_hermitian(sharp).values
    scale_fix = (np.prod(lam_a) / np.prod(lam_mid)) ** (1.0 / n)
    mid = HermitianMatrix(sharp.mat * scale_fix)
    if kostant_leq(mid, ga):
        scale_b = (np.prod(lam_a) / np.prod(lam_b)) ** (1.0 / n)
        gb_fixed = HermitianMatrix(b.mat * scale_b)
        if kostant_leq(ga, gb_fixed):
            yield None, "transitive", kostant_leq(mid, gb_fixed), 0.0


def suite_kostant(trials: int = 50, seed: int = 0) -> SuiteResult:
    """Pre-order sanity: SPD agreement with log-majorization, reflexivity,
    transitivity on witnessed triples, conjugation invariance."""
    return _run("kostant", seed, _cycle(trials, (2, 3, 4, 5, 6)), _kostant_rows)


def _loewner_rows(seed, trial, n):
    a, b = _spd_pair(n, seed + 3571, trial)
    rng = np.random.default_rng(seed + 7000 + trial)
    ga = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    gbm = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    c = SpdMatrix(a.mat + 0.5 * ga @ ga.conj().T)
    d = SpdMatrix(b.mat + 0.5 * gbm @ gbm.conj().T)
    t = LOEWNER_T_GRID[trial % len(LOEWNER_T_GRID)]
    ok = loewner_leq(geometric_mean(a, b, t), geometric_mean(c, d, t))
    yield t, "sharp_joint_monotone", ok, 0.0


def suite_loewner(trials: int = 50, seed: int = 0) -> SuiteResult:
    """Joint monotonicity of the metric mean in the Loewner order."""
    return _run("loewner", seed, _cycle(trials, (2, 3, 4, 5)), _loewner_rows)


def _realization_rows(seed, trial, n):
    slr = REALIZATIONS["slr"]
    base = seed + 10007 * trial + 101 * n
    a = mat_exp(slr.sample(n, base))
    b = mat_exp(slr.sample(n, base + 104729))
    identities = _IdentityContext(a, b)
    worst = max(identities.evaluate(*REALIZATION_TRIPLE).values())
    yield None, "means_identities", worst <= IDENTITY_TOL, worst
    det_err = max(abs(spd_det(a) - 1.0), abs(spd_det(b) - 1.0))
    yield None, "unit_determinant", det_err < UNIT_DET_TOL, det_err
    lam_sharp, lam_nat = identities.pair.spectra([REALIZATION_LOGMAJ_T])
    margin = float(log_majorization_margins(lam_sharp, lam_nat)[0][0])
    yield None, "log_majorization", margin >= -LOGMAJ_MARGIN_TOL, margin

    x = slr.sample(n, base + 1, CHAIN_SCALE)
    y = slr.sample(n, base + 2, CHAIN_SCALE)
    scan = scan_chain(x, y, REALIZATION_R_GRID)
    chain_rep = evaluate_chain(scan)
    yield None, "chain", chain_rep.passed, float(chain_rep.margin[chain_rep.worst])
    _, agree = group_chain_report(scan, chain_rep)
    yield None, "kostant_agreement", agree, 0.0

    x, y = slr.sample(n, base + 3), slr.sample(n, base + 4)
    for kind in TARGET_KINDS:
        prob = OrbitProblem.create(x, y, kind)
        yield None, "orbit_" + kind, *orbit_verdict("slr", prob, base)


def suite_realization(seed: int = 0, trials: int = 3, n_values=(2, 3, 4)) -> SuiteResult:
    """The checks re-run on the real realization SL(n,R)/SO(n), eight rows
    per case (trial, n); the orbit rows solve in slr under any --realization."""
    return run_suites_on_realization(seed=seed, n_values=n_values, trials=trials)


# Every suite at CLI scale, in report order: name -> (seed, trials,
# realization) -> SuiteResult.
_CLI_SUITES = {
    "golden": lambda seed, trials, realization: suite_counterexample_goldens(seed),
    "means": lambda seed, trials, realization: suite_mean_identities(trials, seed),
    "logmaj": lambda seed, trials, realization: suite_log_majorization(trials, seed),
    "compound": lambda seed, trials, realization: suite_compound(trials, seed),
    "chain": lambda seed, trials, realization: suite_chain(max(1, trials // 5), seed),
    "orbit": lambda seed, trials, realization: suite_orbit(
        max(1, trials // 10), seed, n_values=(2, 3), realization=realization
    ),
    "kostant": lambda seed, trials, realization: suite_kostant(trials, seed),
    "gradcheck": lambda seed, trials, realization: suite_gradient_check(trials, seed),
    "loewner": lambda seed, trials, realization: suite_loewner(trials, seed),
    "realization": lambda seed, trials, realization: suite_realization(seed, max(1, trials // 8)),
}
ALL_SUITES = tuple(_CLI_SUITES)


def run_suite(name: str, seed: int, trials: int, realization: str = "glc"):
    """Run a named suite at CLI scale."""
    if name not in _CLI_SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return _CLI_SUITES[name](seed, trials, realization)
