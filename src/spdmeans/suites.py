"""Batch verification suites.

Each suite is a deterministic function of its seed and size parameters and
returns uniform rows (suite, seed, trial, n, t, property, status, margin)
ready for CSV emission.  The CLI wraps these with flags; the acceptance
tests call them directly at their contract scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MaxIterReached
from .gtchain import (
    DEFAULT_R_GRID,
    evaluate_chain,
    golden_thompson_refinement,
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
    check_compound_mean_identities,
    compound_spd,
    log_majorization_report,
    log_majorizes,
)
from .means import (
    IDENTITY_NAMES,
    _IdentityContext,
    _MeanPair,
    geometric_mean,
    loewner_leq,
    rel_residual,
    spd_det,
    spectral_mean,
)
from .orbit import OrbitProblem, objective, riemannian_grad, solve, verify_membership
from .sampling import (
    random_hermitian,
    random_real_symmetric_traceless,
    random_spd,
    random_unitary,
)

GOLDEN_TOL = 5e-5  # half-ulp of values printed to four decimals


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


def _spd_pair(n: int, seed: int, trial: int, spread: float = 2.0):
    a = random_spd(n, seed * 1_000_003 + 2 * trial, spread)
    b = random_spd(n, seed * 1_000_003 + 2 * trial + 1, spread)
    return a, b


def suite_counterexample_goldens(seed: int = 0) -> SuiteResult:
    """The two printed counterexample pairs, checked to half-ulp of 4 decimals."""
    res = SuiteResult("counterexamples")

    def add(prop, passed, margin, n=2, t=0.5):
        res.rows.append(Row("counterexamples", seed, 0, n, t, prop, passed, margin))

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
    add("sharp_b1_exact", d1 <= 1e-12, d1)
    add("sharp_b2_exact", d2 <= 1e-12, d2)
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
    t_grid=tuple(k / 10.0 for k in range(11)),
    margin_tol: float = 1e-8,
    det_tol: float = 1e-10,
) -> SuiteResult:
    """lambda(A #_t B) <_log lambda(A @_t B) plus the determinant law."""
    res = SuiteResult("log_majorization")
    for trial in range(trials):
        n = n_values[trial % len(n_values)]
        a, b = _spd_pair(n, seed, trial)
        pair = _MeanPair(a, b)
        det_a, det_b = spd_det(a), spd_det(b)
        worst_margin = math.inf
        worst_det = 0.0
        for t in t_grid:
            lam_sharp = eig_hermitian(pair.sharp(t)).values
            lam_nat = eig_hermitian(pair.natural(t)).values
            rep = log_majorization_report(lam_sharp, lam_nat)
            worst_margin = min(worst_margin, rep.worst_margin)
            target = det_a ** (1.0 - t) * det_b ** t
            err = max(
                abs(float(np.prod(lam_sharp)) - target),
                abs(float(np.prod(lam_nat)) - target),
            ) / abs(target)
            worst_det = max(worst_det, err)
        res.rows.append(
            Row(
                "log_majorization", seed, trial, n, None,
                "sharp_log_majorized_by_natural",
                worst_margin >= -margin_tol, worst_margin,
            )
        )
        res.rows.append(
            Row(
                "log_majorization", seed, trial, n, None,
                "determinant_equality", worst_det <= det_tol, worst_det,
            )
        )
    return res


def suite_compound(
    trials: int = 100,
    seed: int = 0,
    n: int = 4,
    k_values=(2, 3),
    t: float = 0.7,
    tol: float = 1e-10,
) -> SuiteResult:
    """Compound-mean commutation and the top-eigenvalue product identity."""
    res = SuiteResult("compound")
    for trial in range(trials):
        a, b = _spd_pair(n, seed + 7919, trial)
        lam_a = eig_hermitian(a).values
        for k in k_values:
            rep = check_compound_mean_identities(a, b, t, k)
            res.rows.append(
                Row(
                    "compound", seed, trial, n, t, f"sharp_commutes_k{k}",
                    rep.sharp_residual <= tol, rep.sharp_residual,
                )
            )
            res.rows.append(
                Row(
                    "compound", seed, trial, n, t, f"natural_commutes_k{k}",
                    rep.natural_residual <= tol, rep.natural_residual,
                )
            )
            ck = compound_spd(a, k)
            top = eig_hermitian(ck).values[0]
            target = float(np.prod(lam_a[:k]))
            err = abs(top - target) / abs(target)
            res.rows.append(
                Row(
                    "compound", seed, trial, n, None, f"top_eig_product_k{k}",
                    err <= tol, err,
                )
            )
    return res


def suite_mean_identities(
    trials: int = 100,
    seed: int = 0,
    n_values=(2, 3, 4, 5, 6),
    t_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
    r_grid=(0.0, 0.1, 0.25, 0.4, 0.5),
    s_grid=(0.0, 0.1, 0.25, 0.4, 0.5),
    tol: float = 1e-10,
) -> SuiteResult:
    """Every identity law on a (t, r, s) grid; one row per (pair, law)."""
    res = SuiteResult("mean_identities")
    for trial in range(trials):
        n = n_values[trial % len(n_values)]
        a, b = _spd_pair(n, seed + 104729, trial)
        ctx = _IdentityContext(a, b)
        worst = dict.fromkeys(IDENTITY_NAMES, 0.0)
        for t in t_grid:
            for r in r_grid:
                for s in s_grid:
                    if r + s > 1.0 or r >= 1.0:
                        continue
                    rep = ctx.evaluate(t, r, s)
                    for name, val in rep.residuals.items():
                        if val > worst[name]:
                            worst[name] = val
        for name in IDENTITY_NAMES:
            res.rows.append(
                Row(
                    "mean_identities", seed, trial, n, None, name,
                    worst[name] <= tol, worst[name],
                )
            )
    return res


def suite_chain(
    trials: int = 50,
    seed: int = 0,
    n_values=(2, 3, 4, 5, 6),
    r_grid=DEFAULT_R_GRID,
    scale: float = 0.5,
    check_kostant: bool = True,
) -> SuiteResult:
    """Chain monotonicity, sandwich, traces, Lie-Trotter shrinkage, and the
    group-comparator agreement, per random Hermitian pair."""
    res = SuiteResult("chain")
    for trial in range(trials):
        n = n_values[trial % len(n_values)]
        x = random_hermitian(n, seed * 99991 + 2 * trial, scale)
        y = random_hermitian(n, seed * 99991 + 2 * trial + 1, scale)
        scan = scan_chain(x, y, r_grid)
        rep = evaluate_chain(scan)
        families: dict = {}
        for check in rep.checks:
            fam = "_".join(
                tok
                for tok in check.name.split("_")
                if not any(ch.isdigit() for ch in tok)
            )
            cur = families.get(fam)
            slack = check.margin + check.tol
            if cur is None or slack < cur[1] + cur[2]:
                families[fam] = (check.holds, check.margin, check.tol)
        for fam, (holds, margin, _tol) in sorted(families.items()):
            res.rows.append(
                Row("chain", seed, trial, n, None, fam, holds, margin)
            )
        # Lie-Trotter: the distance to e^{X+Y} at the smallest grid r is
        # below the one at the largest.  Step-by-step decrease is no theorem.
        dists = trotter_distances(scan)
        phi_shrinks = dists[0][1] < dists[-1][1]
        psi_shrinks = dists[0][2] < dists[-1][2]
        res.rows.append(
            Row("chain", seed, trial, n, None, "trotter_phi_shrinks", phi_shrinks, 0.0)
        )
        res.rows.append(
            Row("chain", seed, trial, n, None, "trotter_psi_shrinks", psi_shrinks, 0.0)
        )
        for r, lo, mid, hi in golden_thompson_refinement(x, y):
            ok = lo <= mid + 1e-10 and mid <= hi + 1e-10
            res.rows.append(
                Row(
                    "chain", seed, trial, n, r, "gt_refinement_sandwich",
                    ok, min(mid - lo, hi - mid),
                )
            )
        if check_kostant:
            _, agree = group_chain_report(scan)
            res.rows.append(
                Row("chain", seed, trial, n, None, "kostant_agreement", agree, 0.0)
            )
    return res


def suite_orbit(
    instances: int = 10,
    seed: int = 0,
    n_values=(2, 3, 4, 5, 6),
    kinds=("exp_product", "geometric", "spectral"),
    realization: str = "glc",
    tol: float = 1e-8,
    max_restarts: int = 4,
) -> SuiteResult:
    """Orbit-sum solves: residual, trace condition, monotone trace,
    eigenvalue preservation, restart budget."""
    res = SuiteResult(f"orbit_{realization}")
    for kind in kinds:
        for n in n_values:
            for inst in range(instances):
                base = seed * 7 + 1009 * inst + 13 * n
                if realization == "slr":
                    x = random_real_symmetric_traceless(n, base)
                    y = random_real_symmetric_traceless(n, base + 500009)
                else:
                    x = random_hermitian(n, base, 1.0)
                    y = random_hermitian(n, base + 500009, 1.0)
                prob = OrbitProblem.create(x, y, kind)
                tr_gap = abs(
                    float(np.trace(prob.z.mat).real)
                    - float(np.trace(x.mat).real)
                    - float(np.trace(y.mat).real)
                )
                res.rows.append(
                    Row(
                        res.name, seed, inst, n, None, f"{kind}_trace_condition",
                        tr_gap <= 1e-10 * max(1.0, abs(np.trace(prob.z.mat).real)),
                        tr_gap,
                    )
                )
                try:
                    sol = solve(
                        prob, tol=tol, seed=base, realization=realization,
                        max_restarts=max_restarts,
                    )
                    converged = sol.residual <= tol
                except MaxIterReached as exc:
                    best = exc.solution.residual if exc.solution else 1.0
                    res.rows.append(
                        Row(res.name, seed, inst, n, None, f"{kind}_solved", False, best)
                    )
                    continue
                mono = all(
                    later <= earlier
                    for earlier, later in zip(
                        sol.objective_trace, sol.objective_trace[1:]
                    )
                )
                membership = verify_membership(sol, prob)
                ok = converged and mono and membership and sol.restarts <= max_restarts
                if realization == "slr":
                    u = sol.u.mat.real
                    v = sol.v.mat.real
                    ok = ok and np.linalg.det(u) > 0.0 and np.linalg.det(v) > 0.0
                res.rows.append(
                    Row(
                        res.name, seed, inst, n, None, f"{kind}_solved",
                        ok, sol.residual,
                    )
                )
    return res


def suite_gradient_check(
    trials: int = 100, seed: int = 0, eps: float = 1e-6, tol: float = 1e-4
) -> SuiteResult:
    """Directional derivatives against finite differences on random triples."""
    res = SuiteResult("gradient_check")
    n_values = (2, 3, 4, 5, 6)
    kinds = ("exp_product", "geometric", "spectral")
    for trial in range(trials):
        n = n_values[trial % len(n_values)]
        kind = kinds[trial % len(kinds)]
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
        pair = eig_hermitian(HermitianMatrix._wrap(-1j * k))
        q = pair.vectors.mat
        fwd = (q * np.exp(1j * eps * pair.values)) @ q.conj().T
        bwd = (q * np.exp(-1j * eps * pair.values)) @ q.conj().T
        f_plus = objective(UnitaryMatrix(fwd @ u.mat), v, prob)
        f_minus = objective(UnitaryMatrix(bwd @ u.mat), v, prob)
        fd = (f_plus - f_minus) / (2.0 * eps)
        inner = float(np.real(np.sum(np.conj(k) * k_u)))
        err = abs(fd - inner) / max(abs(inner), 1e-300)
        res.rows.append(
            Row(
                "gradient_check", seed, trial, n, None, f"{kind}_fd_match",
                err <= tol, err,
            )
        )
    return res


def suite_kostant(trials: int = 50, seed: int = 0) -> SuiteResult:
    """Pre-order sanity: SPD agreement with log-majorization, reflexivity,
    transitivity on witnessed triples, conjugation invariance."""
    from .sampling import random_invertible

    res = SuiteResult("kostant")
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
        res.rows.append(
            Row("kostant", seed, trial, n, None, "spd_agreement", agree, 0.0)
        )
        res.rows.append(
            Row("kostant", seed, trial, n, None, "reflexive", kostant_leq(ga, ga), 0.0)
        )
        g = random_invertible(n, base)
        s = random_invertible(n, base + 1)
        h1 = hyperbolic_spectrum(g)
        h2 = hyperbolic_spectrum(
            ComplexMatrix(s.mat @ g.mat @ np.linalg.inv(s.mat))
        )
        err = float(np.abs(h1 - h2).max()) / float(h1.max())
        res.rows.append(
            Row(
                "kostant", seed, trial, n, None, "conjugation_invariance",
                err <= 1e-9, err,
            )
        )
        # Transitivity on a witnessed chain p <= p#q <= q ordering by det-1
        # scaling: use scalar multiples to manufacture comparable elements.
        lam_mid = eig_hermitian(geometric_mean(a, b, 0.5)).values
        scale_fix = (np.prod(lam_a) / np.prod(lam_mid)) ** (1.0 / n)
        mid = ComplexMatrix(geometric_mean(a, b, 0.5).mat * scale_fix)
        scale_b = (np.prod(lam_a) / np.prod(lam_b)) ** (1.0 / n)
        gb_fixed = ComplexMatrix(b.mat * scale_b)
        if kostant_leq(mid, ga) and kostant_leq(ga, gb_fixed):
            res.rows.append(
                Row(
                    "kostant", seed, trial, n, None, "transitive",
                    kostant_leq(mid, gb_fixed), 0.0,
                )
            )
    return res


def suite_loewner(trials: int = 50, seed: int = 0) -> SuiteResult:
    """Joint monotonicity of the metric mean in the Loewner order."""
    res = SuiteResult("loewner")
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
        res.rows.append(
            Row("loewner", seed, trial, n, t, "sharp_joint_monotone", ok, 0.0)
        )
    return res


def suite_realization(seed: int = 0, trials: int = 3, n_values=(2, 3, 4)) -> SuiteResult:
    """Real-realization re-run rows, forwarded from the realization report."""
    from .realizations import run_suites_on_realization

    rep = run_suites_on_realization(seed=seed, n_values=n_values, trials=trials)
    res = SuiteResult("realization")
    for suite, label, passed, margin in rep.rows:
        n = int(label.split("n=")[1].split(" ")[0])
        trial = int(label.split("trial=")[1])
        res.rows.append(
            Row("realization", seed, trial, n, None, suite, passed, margin)
        )
    return res


ALL_SUITES = (
    "golden",
    "means",
    "logmaj",
    "compound",
    "chain",
    "orbit",
    "kostant",
    "gradcheck",
    "loewner",
    "realization",
)


def run_suite(name: str, seed: int, trials: int, realization: str = "glc"):
    """Dispatch a named suite at CLI scale."""
    if name == "golden":
        return suite_counterexample_goldens(seed)
    if name == "means":
        return suite_mean_identities(trials=trials, seed=seed)
    if name == "logmaj":
        return suite_log_majorization(trials=trials, seed=seed)
    if name == "compound":
        return suite_compound(trials=trials, seed=seed)
    if name == "chain":
        return suite_chain(trials=max(1, trials // 5), seed=seed)
    if name == "orbit":
        return suite_orbit(
            instances=max(1, trials // 10),
            seed=seed,
            n_values=(2, 3),
            realization=realization,
        )
    if name == "kostant":
        return suite_kostant(trials=trials, seed=seed)
    if name == "gradcheck":
        return suite_gradient_check(trials=trials, seed=seed)
    if name == "loewner":
        return suite_loewner(trials=trials, seed=seed)
    if name == "realization":
        return suite_realization(seed=seed)
    raise ValueError(f"unknown suite {name!r}")
