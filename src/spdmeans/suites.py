"""Batch verification suites.

Each suite is a deterministic function of its seed and size parameters and
returns a ``SuiteResult``: the suite's name and seed plus one ``Row`` per
checked property, written by ``write_report`` as the CSV columns
``suite,seed,trial,n,t,property,status,margin``.  ``run_suite`` calls each
suite at CLI scale; the acceptance tests call them at their contract scales.

The suites take sizes and seeds only.  Every grid, tolerance and budget
they read is one named constant, defined here unless a module is named, and
each check has one pass rule:

    constant                   value          read by
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
    CHAIN_SCALE                0.5            chain
    SANDWICH_TOL               1e-10          chain (refinement sandwich)
    orbit.TARGET_KINDS         three kinds    orbit, gradient_check
    TRACE_GAP_TOL              1e-10          orbit (trace condition)
    orbit.ORBIT_TOL            1e-8           orbit, realization
    orbit.MAX_ITER             5000           orbit, realization
    orbit.MAX_RESTARTS         4              orbit, realization
    GRADCHECK_EPS              1e-3           gradient_check
    GRADCHECK_TOL              1e-4           gradient_check
    CONJUGATION_TOL            1e-9           kostant
    realizations.UNIT_DET_TOL  1e-8           realization

A log-majorization row passes iff its worst margin is at least
-LOGMAJ_MARGIN_TOL, and an orbit solve iff ``orbit_verdict`` says so, in
every suite that checks one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MaxIterReached
from .gtchain import (
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
)
from .majorization import (
    COMPOUND_TOL,
    check_compound_mean_identities,
    compound_spd,
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
    MAX_RESTARTS, ORBIT_TOL, TARGET_KINDS, OrbitProblem, _cayley, objective,
    riemannian_grad, solve, verify_membership,
)
from .realizations import REALIZATIONS, run_suites_on_realization
from .sampling import random_hermitian, random_invertible, random_spd, random_unitary

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
CONJUGATION_TOL = 1e-9


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

    def add(self, trial: int, n: int, t, prop: str, passed, margin) -> None:
        self.rows.append(Row(self.name, self.seed, trial, n, t, prop, passed, margin))

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


def _spd_pair(n: int, seed: int, trial: int, spread: float = 2.0):
    a = random_spd(n, seed * 1_000_003 + 2 * trial, spread)
    b = random_spd(n, seed * 1_000_003 + 2 * trial + 1, spread)
    return a, b


def suite_counterexample_goldens(seed: int = 0) -> SuiteResult:
    """The two printed counterexample pairs, checked to half-ulp of 4 decimals."""
    res = SuiteResult("counterexamples", seed)

    def add(prop, passed, margin):
        res.add(0, 2, 0.5, prop, passed, margin)

    a = SpdMatrix(np.diag([16.0, 1.0]))
    b1 = SpdMatrix(np.diag([2.0, 4.0]))
    b2 = SpdMatrix(np.diag([1.0, 8.0]))
    lam_b1 = eig_hermitian(b1).values
    lam_b2 = eig_hermitian(b2).values
    add("inputs_log_majorized", log_majorizes(lam_b1, lam_b2), 0.0)
    s1 = geometric_mean(a, b1, 0.5)
    s2 = geometric_mean(a, b2, 0.5)
    d1 = rel_residual(s1.mat, np.diag([4.0 * math.sqrt(2.0), 2.0]))
    d2 = rel_residual(s2.mat, np.diag([4.0, 2.0 * math.sqrt(2.0)]))
    add("sharp_b1_exact", d1 <= EXACT_TOL, d1)
    add("sharp_b2_exact", d2 <= EXACT_TOL, d2)
    add(
        "means_not_log_majorized",
        not log_majorizes(eig_hermitian(s1).values, eig_hermitian(s2).values),
        0.0,
    )

    a = SpdMatrix([[6.0, -3.0], [-3.0, 4.0]])
    b = SpdMatrix([[4.0, -2.0], [-2.0, 5.0]])
    sharp = geometric_mean(a, b, 0.5)
    natural = spectral_mean(a, b, 0.5)
    sharp_ref = np.array([[4.8990, -2.4495], [-2.4495, 4.3870]])
    natural_ref = np.array([[4.8992, -2.4896], [-2.4896, 4.4273]])
    ds = float(np.abs(sharp.mat - sharp_ref).max())
    dn = float(np.abs(natural.mat - natural_ref).max())
    add("sharp_matches_print", ds <= GOLDEN_TOL, ds)
    add("natural_matches_print", dn <= GOLDEN_TOL, dn)
    diff = HermitianMatrix(natural.mat - sharp.mat)
    lam = eig_hermitian(diff).values
    gap = float(np.abs(np.sort(lam) - np.sort(np.array([0.0651, -0.0246]))).max())
    add("difference_eigenvalues", gap <= GOLDEN_TOL, gap)
    add("loewner_fails", not loewner_leq(sharp, natural), 0.0)
    lm = log_majorization_report(
        eig_hermitian(sharp).values, eig_hermitian(natural).values
    )
    add("log_majorization_holds", lm.holds, lm.worst_margin)
    return res


def suite_log_majorization(
    trials: int = 100,
    seed: int = 0,
    n_values=(2, 3, 4, 5, 6, 7, 8),
) -> SuiteResult:
    """lambda(A #_t B) <_log lambda(A @_t B) plus the determinant law, over
    LOGMAJ_T_GRID."""
    res = SuiteResult("log_majorization", seed)
    ts = np.asarray(LOGMAJ_T_GRID, dtype=float)
    for trial in range(trials):
        n = n_values[trial % len(n_values)]
        a, b = _spd_pair(n, seed, trial)
        lam_sharp, lam_nat = _MeanPair(a, b).spectra(ts)
        worst_margin = float(log_majorization_margins(lam_sharp, lam_nat)[0].min())
        target = spd_det(a) ** (1.0 - ts) * spd_det(b) ** ts
        dets = np.prod([lam_sharp, lam_nat], axis=-1)
        worst_det = float((np.abs(dets - target) / np.abs(target)).max())
        res.add(
            trial, n, None, "sharp_log_majorized_by_natural",
            worst_margin >= -LOGMAJ_MARGIN_TOL, worst_margin,
        )
        res.add(trial, n, None, "determinant_equality", worst_det <= DET_TOL, worst_det)
    return res


def suite_compound(
    trials: int = 100,
    seed: int = 0,
    n: int = 4,
    k_values=(2, 3),
) -> SuiteResult:
    """Compound-mean commutation at COMPOUND_T and the top-eigenvalue product
    identity."""
    res = SuiteResult("compound", seed)
    t, tol = COMPOUND_T, COMPOUND_TOL
    for trial in range(trials):
        a, b = _spd_pair(n, seed + 7919, trial)
        lam_a = eig_hermitian(a).values
        for k in k_values:
            rep = check_compound_mean_identities(a, b, t, k)
            sharp, natural = rep.sharp_residual, rep.natural_residual
            res.add(trial, n, t, f"sharp_commutes_k{k}", sharp <= tol, sharp)
            res.add(trial, n, t, f"natural_commutes_k{k}", natural <= tol, natural)
            top = eig_hermitian(compound_spd(a, k)).values[0]
            target = float(np.prod(lam_a[:k]))
            err = abs(top - target) / abs(target)
            res.add(trial, n, None, f"top_eig_product_k{k}", err <= tol, err)
    return res


def suite_mean_identities(
    trials: int = 100,
    seed: int = 0,
    n_values=(2, 3, 4, 5, 6),
) -> SuiteResult:
    """Every identity law on the (t, r, s) grid IDENTITY_GRIDS; one row per
    (pair, law)."""
    res = SuiteResult("mean_identities", seed)
    for trial in range(trials):
        n = n_values[trial % len(n_values)]
        a, b = _spd_pair(n, seed + 104729, trial)
        _, table = _IdentityContext(a, b).residuals(*IDENTITY_GRIDS)
        for name, worst in zip(IDENTITY_NAMES, table.max(axis=0, initial=0.0).tolist()):
            res.add(trial, n, None, name, worst <= IDENTITY_TOL, worst)
    return res


def suite_chain(
    trials: int = 50,
    seed: int = 0,
    n_values=(2, 3, 4, 5, 6),
) -> SuiteResult:
    """Chain monotonicity, sandwich, traces, Lie-Trotter shrinkage, the
    Golden-Thompson refinement at r = 0.5 and 1 and the group-comparator
    agreement, per random Hermitian pair of scale CHAIN_SCALE, all from one
    scan over DEFAULT_R_GRID.  Each chain predicate family gives one row:
    its check with the least slack."""
    res = SuiteResult("chain", seed)
    for trial in range(trials):
        n = n_values[trial % len(n_values)]
        x = random_hermitian(n, seed * 99991 + 2 * trial, CHAIN_SCALE)
        y = random_hermitian(n, seed * 99991 + 2 * trial + 1, CHAIN_SCALE)
        scan = scan_chain(x, y, DEFAULT_R_GRID)
        chain_rep = evaluate_chain(scan)
        tightest: dict = {}
        for check in chain_rep.checks:
            cur = tightest.get(check.name)
            if cur is None or check.margin + check.tol < cur.margin + cur.tol:
                tightest[check.name] = check
        for name, check in sorted(tightest.items()):
            res.add(trial, n, None, name, check.holds, check.margin)
        # Lie-Trotter: the distance to e^{X+Y} at the smallest grid r is
        # below the one at the largest.  Step-by-step decrease is no theorem.
        dists = trotter_distances(scan)
        res.add(trial, n, None, "trotter_phi_shrinks", dists[0][1] < dists[-1][1], 0.0)
        res.add(trial, n, None, "trotter_psi_shrinks", dists[0][2] < dists[-1][2], 0.0)
        for r, lo, mid, hi in refinement_from_scan(scan):
            ok = lo <= mid + SANDWICH_TOL and mid <= hi + SANDWICH_TOL
            res.add(trial, n, r, "gt_refinement_sandwich", ok, min(mid - lo, hi - mid))
        _, agree = group_chain_report(scan, chain_rep)
        res.add(trial, n, None, "kostant_agreement", agree, 0.0)
    return res


def orbit_verdict(realization: str, prob: OrbitProblem, seed: int) -> tuple[bool, float]:
    """Solve prob in the realization and judge the solve: (passed, residual).

    Passes iff the residual is at most ORBIT_TOL, the objective trace is
    monotone, the restarts are within MAX_RESTARTS, ``verify_membership``
    holds and both factors lie in the realization's K.  A solve that stops
    above tolerance (``MaxIterReached``) fails with its best residual.
    """
    space = REALIZATIONS[realization]
    try:
        sol = solve(prob, seed=seed, realization=realization)
    except MaxIterReached as exc:
        return False, exc.solution.residual if exc.solution else 1.0
    trace = sol.objective_trace
    mono = all(later <= earlier for earlier, later in zip(trace, trace[1:]))
    ok = sol.residual <= ORBIT_TOL and mono and sol.restarts <= MAX_RESTARTS
    ok = ok and verify_membership(sol, prob)
    ok = ok and space.contains(sol.u.mat) and space.contains(sol.v.mat)
    return ok, sol.residual


def suite_orbit(
    instances: int = 10,
    seed: int = 0,
    n_values=(2, 3, 4, 5, 6),
    realization: str = "glc",
) -> SuiteResult:
    """Orbit-sum solves of every target kind: the trace condition, then
    ``orbit_verdict`` (residual, monotone trace, restart budget, eigenvalue
    preservation, factors in K)."""
    res = SuiteResult(f"orbit_{realization}", seed)
    space = REALIZATIONS[realization]
    for kind in TARGET_KINDS:
        for n in n_values:
            for inst in range(instances):
                base = seed * 7 + 1009 * inst + 13 * n
                x = space.sample(n, base, 1.0)
                y = space.sample(n, base + 500009, 1.0)
                prob = OrbitProblem.create(x, y, kind)
                tr_gap = abs(
                    float(np.trace(prob.z.mat).real)
                    - float(np.trace(x.mat).real)
                    - float(np.trace(y.mat).real)
                )
                res.add(
                    inst, n, None, f"{kind}_trace_condition",
                    tr_gap <= TRACE_GAP_TOL * max(1.0, abs(np.trace(prob.z.mat).real)),
                    tr_gap,
                )
                passed, residual = orbit_verdict(realization, prob, base)
                res.add(inst, n, None, f"{kind}_solved", passed, residual)
    return res


def suite_gradient_check(trials: int = 100, seed: int = 0) -> SuiteResult:
    """Directional derivatives against the five-point central difference
    (8 (f(h) - f(-h)) - (f(2h) - f(-2h))) / 12h, h = GRADCHECK_EPS, of f
    along the solver's Cayley curve, on random triples: fourth order in h,
    so h can be large enough that rounding in f stays far below
    GRADCHECK_TOL."""
    res = SuiteResult("gradient_check", seed)
    n_values = (2, 3, 4, 5, 6)
    eps = GRADCHECK_EPS
    for trial in range(trials):
        n = n_values[trial % len(n_values)]
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
        res.add(trial, n, None, f"{kind}_fd_match", err <= GRADCHECK_TOL, err)
    return res


def suite_kostant(trials: int = 50, seed: int = 0) -> SuiteResult:
    """Pre-order sanity: SPD agreement with log-majorization, reflexivity,
    transitivity on witnessed triples, conjugation invariance."""
    res = SuiteResult("kostant", seed)
    for trial in range(trials):
        n = 2 + trial % 5
        base = seed + 37 * trial
        a, b = _spd_pair(n, seed + 11, trial)
        lam_a = eig_hermitian(a).values
        lam_b = eig_hermitian(b).values
        ga = ComplexMatrix(a.mat)
        gb = ComplexMatrix(b.mat)
        agree = kostant_leq(ga, gb) == log_majorizes(lam_a, lam_b) and kostant_leq(
            gb, ga
        ) == log_majorizes(lam_b, lam_a)
        res.add(trial, n, None, "spd_agreement", agree, 0.0)
        res.add(trial, n, None, "reflexive", kostant_leq(ga, ga), 0.0)
        g = random_invertible(n, base)
        s = random_invertible(n, base + 1)
        h1 = hyperbolic_spectrum(g)
        h2 = hyperbolic_spectrum(
            ComplexMatrix(s.mat @ g.mat @ np.linalg.inv(s.mat))
        )
        err = float(np.abs(h1 - h2).max()) / float(h1.max())
        res.add(trial, n, None, "conjugation_invariance", err <= CONJUGATION_TOL, err)
        # Transitivity on a witnessed chain p <= p#q <= q ordering by det-1
        # scaling: use scalar multiples to manufacture comparable elements.
        sharp = geometric_mean(a, b, 0.5)
        lam_mid = eig_hermitian(sharp).values
        scale_fix = (np.prod(lam_a) / np.prod(lam_mid)) ** (1.0 / n)
        mid = ComplexMatrix(sharp.mat * scale_fix)
        scale_b = (np.prod(lam_a) / np.prod(lam_b)) ** (1.0 / n)
        gb_fixed = ComplexMatrix(b.mat * scale_b)
        if kostant_leq(mid, ga) and kostant_leq(ga, gb_fixed):
            res.add(trial, n, None, "transitive", kostant_leq(mid, gb_fixed), 0.0)
    return res


def suite_loewner(trials: int = 50, seed: int = 0) -> SuiteResult:
    """Joint monotonicity of the metric mean in the Loewner order."""
    res = SuiteResult("loewner", seed)
    for trial in range(trials):
        n = 2 + trial % 4
        a, b = _spd_pair(n, seed + 3571, trial)
        rng = np.random.default_rng(seed + 7000 + trial)
        ga = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        gbm = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c = SpdMatrix(a.mat + 0.5 * ga @ ga.conj().T)
        d = SpdMatrix(b.mat + 0.5 * gbm @ gbm.conj().T)
        t = (trial % 11) / 10.0
        ok = loewner_leq(geometric_mean(a, b, t), geometric_mean(c, d, t))
        res.add(trial, n, t, "sharp_joint_monotone", ok, 0.0)
    return res


def suite_realization(seed: int = 0, trials: int = 3, n_values=(2, 3, 4)) -> SuiteResult:
    """The checks re-run on the real realization SL(n,R)/SO(n)."""
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
    "realization": lambda seed, trials, realization: suite_realization(seed),
}
ALL_SUITES = tuple(_CLI_SUITES)


def run_suite(name: str, seed: int, trials: int, realization: str = "glc"):
    """Run a named suite at CLI scale."""
    if name not in _CLI_SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return _CLI_SUITES[name](seed, trials, realization)
