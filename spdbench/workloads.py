"""The three benchmark workloads and the checks on their outputs.

A workload is built from a list of round seeds.  ``prepare`` is the set-up
(input generation and a warm-up), ``ops`` yields the timed operations of one
round, and ``check`` verifies the collected outcomes after timing, by
computations made apart from the program (numpy, scipy.linalg) or by
properties the method must have.  It returns a list of problems; empty
means correct.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

# Timed code reaches the program through module attributes (suites.*,
# orbit.*, sampling.*), so the traced run's wrappers see every call; the
# names imported directly are used by the checks only.
from spdmeans import SpdMeansError, compound, geometric_mean, orbit, sampling, spectral_mean, suites

T_GRID = tuple(k / 10.0 for k in range(11))

# Warm-up inputs do not depend on --seed, so set-up does the same work in
# every run.
WARMUP_SEED = 999_999


@dataclass
class Outcome:
    """One timed operation: what ran, what it returned, how long it took."""

    round: int
    label: str
    meta: dict
    result: object = None
    error: Exception | None = None
    seconds: float = 0.0
    sample: int = 0  # index of the host-speed sample taken just before it
    ok: bool = False
    verdicts: int = 0


def _rel(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = max(float(np.abs(lhs).max()), float(np.abs(rhs).max()), 1e-300)
    return float(np.abs(lhs - rhs).max()) / scale


def _herm(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


# ---------------------------------------------------------------- verify-all

VERIFY_TRIALS = 25

# The work of ``spdmeans verify --all --trials 25`` cut into calls of the
# public suite functions that each take well under a second, so that the
# latency figures have hundreds of samples and the host-speed kernel runs
# between short operations.  Each call draws its inputs from its own seed;
# the sizes follow the cycle of the 25-trial suite.
# (suite, function, number of calls, trials per call, n cycle or None)
#
# The chain suite is left out: its trotter_psi_shrinks row fails on some
# seeds (a max-norm distance that is not monotone in r), so a pass with it
# would fail on some seeds and not others.  Chain checks run in
# spectra-large instead.
VERIFY_PLAN = (
    ("golden", "suite_counterexample_goldens", 1, None, None),
    ("means", "suite_mean_identities", 25, 1, (2, 3, 4, 5, 6)),
    ("logmaj", "suite_log_majorization", 25, 1, (2, 3, 4, 5, 6, 7, 8)),
    ("compound", "suite_compound", 25, 1, None),
    ("orbit", "suite_orbit", 1, None, None),
    ("kostant", "suite_kostant", 5, 5, None),
    ("gradcheck", "suite_gradient_check", 5, 5, None),
    ("loewner", "suite_loewner", 5, 5, None),
    ("realization", "suite_realization", 9, 1, (2, 3, 4)),
)

# Rows per suite in one round, from the suite definitions in suites.py:
# the 9 printed-value checks; 15 identity laws per pair; 2 rows per pair;
# 3 rows per (pair, k) for k in {2, 3}; 3 kinds x n in {2, 3} x 2
# instances x 2 rows (run_suite's orbit call at --trials 25); one row per
# trial; 8 rows per (n, trial) for 9 single-trial calls.
VERIFY_ROWS = {
    "counterexamples": 9,
    "mean_identities": 15 * VERIFY_TRIALS,
    "log_majorization": 2 * VERIFY_TRIALS,
    "compound": 3 * 2 * VERIFY_TRIALS,
    "orbit_glc": 3 * 2 * (VERIFY_TRIALS // 10) * 2,
    "gradient_check": VERIFY_TRIALS,
    "loewner": VERIFY_TRIALS,
    "realization": 8 * 9,
}
# Kostant: 3 rows per trial plus a transitivity row where the chain is witnessed.
KOSTANT_ROWS = (3 * VERIFY_TRIALS, 4 * VERIFY_TRIALS)

# Values printed in the paper for A = [[6,-3],[-3,4]], B = [[4,-2],[-2,5]].
PAPER_A = np.array([[6.0, -3.0], [-3.0, 4.0]])
PAPER_B = np.array([[4.0, -2.0], [-2.0, 5.0]])
PAPER_SHARP = np.array([[4.8990, -2.4495], [-2.4495, 4.3870]])
PAPER_NATURAL = np.array([[4.8992, -2.4896], [-2.4896, 4.4273]])
PAPER_DIFF_EIGS = np.array([0.0651, -0.0246])
PRINT_TOL = 5e-5  # half a unit in the fourth printed decimal


def _verify_calls(seed: int) -> list:
    """(suite, function name, keyword arguments) of every call in one round."""
    calls = []
    for suite, fn_name, count, trials, n_cycle in VERIFY_PLAN:
        for i in range(count):
            kwargs = {"seed": seed * 1000 + i}
            if suite == "orbit":
                kwargs.update(instances=VERIFY_TRIALS // 10, n_values=(2, 3))
            if trials is not None:
                kwargs["trials"] = trials
            if n_cycle is not None:
                kwargs["n_values"] = (n_cycle[i % len(n_cycle)],)
            calls.append((suite, fn_name, kwargs))
    return calls


def _read_report(path) -> tuple[bytes, list]:
    with open(path, "rb") as fh:
        raw = fh.read()
    return raw, raw.decode().splitlines()[2:]


class VerifyAll:
    """The verify suites at --trials 25 as small suite calls, then the report."""

    name = "verify-all"
    nominal_round_s = 10.0
    latency_per_round = False

    @staticmethod
    def round_seeds(seed: int, rounds: int) -> list:
        return [seed * 100 + r for r in range(rounds)]

    def __init__(self, round_seeds: list, out_dir):
        self.round_seeds = round_seeds
        self.out_dir = out_dir

    def prepare(self) -> None:
        for suite, fn_name, _count, _trials, n_cycle in VERIFY_PLAN:
            fn = getattr(suites, fn_name)
            if suite == "golden":
                fn(seed=WARMUP_SEED)
            elif suite == "orbit":
                fn(instances=1, seed=WARMUP_SEED, n_values=(2,))
            elif n_cycle is not None:
                fn(trials=1, seed=WARMUP_SEED, n_values=(2,))
            else:
                fn(trials=1, seed=WARMUP_SEED)

    def ops(self, r: int) -> list:
        results: dict = {}
        ops = []
        for i, (suite, fn_name, kwargs) in enumerate(_verify_calls(self.round_seeds[r])):
            # Looked up per round, so the traced round calls the wrappers.
            fn = functools.partial(getattr(suites, fn_name), **kwargs)

            def op(fn=fn, i=i):
                results[i] = fn()
                return results[i]

            label = f"{suite} " + " ".join(f"{k}={v}" for k, v in kwargs.items())
            ops.append((label, {"suite": suite, "fn": fn_name, "kwargs": kwargs}, op))
        path = self.out_dir / f"verify-report-round{r}.csv"
        ops.append(("write_report", {"path": path, "results": results},
                    lambda: suites.write_report(path, [results[i] for i in sorted(results)])))
        return ops

    @staticmethod
    def settle(out: Outcome) -> None:
        if out.label == "write_report":
            out.ok = True
        else:
            out.ok = out.result.passed
            out.verdicts = len(out.result.rows)

    def check(self, outcomes: list) -> list:
        problems = []
        for out in outcomes:
            if out.label != "write_report":
                seed = out.meta["kwargs"]["seed"]
                if out.ok and any(row.seed != seed for row in out.result.rows):
                    problems.append(f"{out.label}: rows carry another seed")
                continue
            _raw, lines = _read_report(out.meta["path"])
            results = out.meta["results"]
            want = [row.as_csv() for i in sorted(results) for row in results[i].rows]
            if lines != want:
                problems.append(f"round {out.round}: the report is not the rows the calls "
                                f"returned ({len(lines)} lines, {len(want)} rows)")
            problems += _check_verify_rows(lines, out.round)
        problems += self._check_rerun(outcomes)
        return problems

    def _check_rerun(self, outcomes: list) -> list:
        """Run the first call of every suite of round 0 again, untimed, and
        write their report: it must be byte for byte the header and the rows
        of those calls in round 0's report, written seconds before."""
        first = {}
        for out in outcomes:
            suite = out.meta.get("suite")
            if out.round == 0 and suite is not None and suite not in first:
                first[suite] = out
        if any(not out.ok for out in first.values()):
            return []  # already counted as a failed operation
        raw0, _lines = _read_report(self.out_dir / "verify-report-round0.csv")
        header = raw0.decode().splitlines()[:2]
        rows = [row.as_csv() for out in first.values() for row in out.result.rows]
        want = "".join(line + "\n" for line in header + rows).encode()
        path = self.out_dir / "verify-report-again.csv"
        suites.write_report(path, [getattr(suites, out.meta["fn"])(**out.meta["kwargs"])
                                   for out in first.values()])
        if _read_report(path)[0] != want:
            return ["a second pass of round 0's first calls wrote a different report"]
        return []


def _check_verify_rows(lines: list, r: int) -> list:
    problems = []
    rows = [line.split(",") for line in lines]
    counts: dict = {}
    for row in rows:
        counts[row[0]] = counts.get(row[0], 0) + 1
        if row[6] != "pass":
            problems.append(f"round {r}: bad row {','.join(row)}")
    for suite, want in VERIFY_ROWS.items():
        if counts.get(suite, 0) != want:
            problems.append(f"round {r}: {suite} has {counts.get(suite, 0)} rows, want {want}")
    lo, hi = KOSTANT_ROWS
    if not lo <= counts.get("kostant", 0) <= hi:
        problems.append(f"round {r}: kostant has {counts.get('kostant', 0)} rows")
    if set(counts) - set(VERIFY_ROWS) - {"kostant"}:
        problems.append(f"round {r}: unexpected suites {sorted(counts)}")

    # Golden rows: recompute the distances to the printed values with scipy.
    margin = {row[5]: float(row[7]) for row in rows if row[0] == "counterexamples"}
    sharp_ref, natural_ref = _scipy_means(PAPER_A, PAPER_B, 0.5)
    want = {
        "sharp_matches_print": float(np.abs(sharp_ref - PAPER_SHARP).max()),
        "natural_matches_print": float(np.abs(natural_ref - PAPER_NATURAL).max()),
        "difference_eigenvalues": float(
            np.abs(
                np.sort(np.linalg.eigvalsh(natural_ref - sharp_ref))
                - np.sort(PAPER_DIFF_EIGS)
            ).max()
        ),
    }
    for prop, ref in want.items():
        got = margin.get(prop)
        if ref > PRINT_TOL or got is None or abs(got - ref) > 1e-9:
            problems.append(f"round {r}: golden {prop} margin {got} vs scipy {ref:.3e}")
    for prop in ("sharp_b1_exact", "sharp_b2_exact"):
        if margin.get(prop, 1.0) > 1e-12:
            problems.append(f"round {r}: golden {prop} margin {margin.get(prop)}")
    return problems


# ------------------------------------------------------------- spectra-large

# (check, n or k): one input pair each per round.
SPECTRA_OPS = (
    ("logmaj", 8),
    ("logmaj", 16),
    ("logmaj", 32),
    ("chain", 8),
    ("chain", 16),
    ("compound", 2),
    ("compound", 3),
)
COMPOUND_N = 6
CHAIN_ROWS = 13  # 8 chain families, 2 Trotter, 2 refinement, 1 comparator


def _scipy_means(a: np.ndarray, b: np.ndarray, t: float):
    """A #_t B and A @_t B from their defining formulas, in scipy.linalg."""
    from scipy import linalg as sla

    ra = sla.sqrtm(a)
    ria = sla.inv(ra)
    sharp = ra @ sla.fractional_matrix_power(_herm(ria @ b @ ria), t) @ ra
    cross = ria @ sla.sqrtm(_herm(ra @ b @ ra)) @ ria  # A^{-1} # B
    ct = sla.fractional_matrix_power(_herm(cross), t)
    natural = ct @ a @ ct
    return _herm(sharp), _herm(natural)


class SpectraLarge:
    """Log-majorization, chain and compound suites at larger n, one pair per op."""

    name = "spectra-large"
    nominal_round_s = 6.0
    # The seven checks cost 0.1 to 2.2 s each, so the median and the 90th
    # percentile of single checks fall between two kinds of check and jump
    # with the inputs; a round of all seven is the unit of latency instead.
    latency_per_round = True

    @staticmethod
    def round_seeds(seed: int, rounds: int) -> list:
        return [seed * 1000 + r for r in range(rounds)]

    def __init__(self, round_seeds: list, out_dir):
        self.round_seeds = round_seeds

    def prepare(self) -> None:
        suites.suite_log_majorization(trials=1, seed=WARMUP_SEED, n_values=(8,))
        suites.suite_chain(trials=1, seed=WARMUP_SEED, n_values=(8,))
        suites.suite_compound(trials=1, seed=WARMUP_SEED, n=COMPOUND_N, k_values=(2,))

    def ops(self, r: int) -> list:
        ops = []
        seed = self.round_seeds[r]
        for kind, size in SPECTRA_OPS:
            if kind == "logmaj":
                fn = functools.partial(suites.suite_log_majorization,
                                       trials=1, seed=seed, n_values=(size,))
            elif kind == "chain":
                fn = functools.partial(suites.suite_chain, trials=1, seed=seed, n_values=(size,))
            else:
                fn = functools.partial(suites.suite_compound, trials=1, seed=seed,
                                       n=COMPOUND_N, k_values=(size,))
            label = f"{kind} {'k' if kind == 'compound' else 'n'}={size}"
            ops.append((label, {"kind": kind, "size": size, "seed": seed}, fn))
        return ops

    @staticmethod
    def settle(out: Outcome) -> None:
        out.ok = out.result.passed
        out.verdicts = len(out.result.rows)

    def check(self, outcomes: list) -> list:
        problems = []
        for out in outcomes:
            if not out.ok:
                continue
            meta, rows = out.meta, out.result.rows
            want = {"logmaj": 2, "chain": CHAIN_ROWS, "compound": 3}[meta["kind"]]
            if len(rows) != want:
                problems.append(f"{out.label} seed {meta['seed']}: {len(rows)} rows, want {want}")
            # The costlier comparisons run on the first round only.
            deep = out.round == 0
            if meta["kind"] == "logmaj":
                problems += _check_logmaj(meta["size"], meta["seed"], rows, deep)
            elif meta["kind"] == "compound" and deep:
                problems += _check_compound(meta["size"], meta["seed"])
        return problems


def _log_majorization_margin(x: np.ndarray, y: np.ndarray) -> float:
    """Worst slack of x <_log y: partial sums of sorted logs, then totals."""
    lx = np.cumsum(np.sort(np.log(x))[::-1])
    ly = np.cumsum(np.sort(np.log(y))[::-1])
    tol = 1e-9 * (1.0 + max(np.abs(np.log(x)).max(), np.abs(np.log(y)).max()))
    return min(float((ly - lx)[:-1].min()), tol - abs(float(lx[-1] - ly[-1])))


def _check_logmaj(n: int, seed: int, rows: list, deep: bool) -> list:
    a, b = suites._spd_pair(n, seed, 0)
    am, bm = a.mat, b.mat
    problems = []
    det_a, det_b = np.linalg.det(am).real, np.linalg.det(bm).real
    worst_margin, worst_det = math.inf, 0.0
    for t in T_GRID:
        sharp, natural = _scipy_means(am, bm, t)
        lam_s = np.linalg.eigvalsh(sharp)
        lam_n = np.linalg.eigvalsh(natural)
        worst_margin = min(worst_margin, _log_majorization_margin(lam_s, lam_n))
        target = det_a ** (1.0 - t) * det_b ** t
        worst_det = max(worst_det, abs(np.prod(lam_s) - target) / target,
                        abs(np.prod(lam_n) - target) / target)
    if worst_margin < -1e-8 or worst_det > 1e-10:
        problems.append(f"logmaj n={n} seed {seed}: reference margin {worst_margin:.3e}, "
                        f"determinant error {worst_det:.3e}")
    by_prop = {row.prop: row.margin for row in rows}
    got = by_prop.get("sharp_log_majorized_by_natural", math.nan)
    if not abs(got - worst_margin) <= 1e-8:
        problems.append(f"logmaj n={n} seed {seed}: margin {got:.3e} vs reference {worst_margin:.3e}")
    if not by_prop.get("determinant_equality", math.inf) <= 1e-10:
        problems.append(f"logmaj n={n} seed {seed}: determinant row {by_prop.get('determinant_equality')}")
    if deep:
        sharp_ref, natural_ref = _scipy_means(am, bm, 0.5)
        g = geometric_mean(a, b, 0.5).mat
        err_s = _rel(g, sharp_ref)
        err_n = _rel(spectral_mean(a, b, 0.5).mat, natural_ref)
        riccati = _rel(g @ np.linalg.inv(am) @ g, bm)
        if err_s > 1e-8 or err_n > 1e-8 or riccati > 1e-9:
            problems.append(f"logmaj n={n} seed {seed}: means vs scipy {err_s:.2e}/{err_n:.2e}, "
                            f"Riccati residual {riccati:.2e}")
    return problems


def _minors(m: np.ndarray, k: int) -> np.ndarray:
    subsets = list(itertools.combinations(range(m.shape[0]), k))
    return np.array([[np.linalg.det(m[np.ix_(rows, cols)]) for cols in subsets]
                     for rows in subsets])


def _check_compound(k: int, seed: int) -> list:
    a, _b = suites._spd_pair(COMPOUND_N, seed + 7919, 0)
    err = _rel(compound(a, k).mat, _minors(a.mat, k))
    if err > 1e-12:
        return [f"compound k={k} seed {seed}: differs from minors by {err:.2e}"]
    return []


# --------------------------------------------------------------- orbit-solve

ORBIT_KINDS = ("exp_product", "geometric", "spectral")
ORBIT_REALIZATIONS = (("glc", "random_hermitian"), ("slr", "random_real_symmetric_traceless"))
ORBIT_SIZES = tuple(range(3, 9))
ORBIT_TOL = 1e-8


class OrbitSolve:
    """Independent ``OrbitProblem.create`` + ``solve`` calls, one per op."""

    name = "orbit-solve"
    nominal_round_s = 3.8
    latency_per_round = False

    @staticmethod
    def round_seeds(seed: int, rounds: int) -> list:
        return [seed * 1000 + r for r in range(rounds)]

    def __init__(self, round_seeds: list, out_dir):
        self.round_seeds = round_seeds
        self.inputs: list = []

    @staticmethod
    def _problems(round_seed: int) -> list:
        out = []
        grid = itertools.product(ORBIT_REALIZATIONS, ORBIT_KINDS, ORBIT_SIZES)
        for p, ((real, sampler_name), kind, n) in enumerate(grid):
            s = round_seed * 100 + p
            sampler = getattr(sampling, sampler_name)
            out.append({"realization": real, "kind": kind, "n": n, "seed": s,
                        "x": sampler(n, 2 * s, 1.0), "y": sampler(n, 2 * s + 1, 1.0)})
        return out

    def prepare(self) -> None:
        self.inputs = [self._problems(s) for s in self.round_seeds]
        for spec in self._problems(WARMUP_SEED)[::12]:
            prob = orbit.OrbitProblem.create(spec["x"], spec["y"], spec["kind"])
            # A warm-up solve only warms; a failing solve shows in the timed ops.
            with contextlib.suppress(SpdMeansError):
                orbit.solve(prob, tol=ORBIT_TOL, seed=spec["seed"],
                            realization=spec["realization"])

    def ops(self, r: int) -> list:
        ops = []
        for spec in self.inputs[r]:
            def op(spec=spec):
                prob = orbit.OrbitProblem.create(spec["x"], spec["y"], spec["kind"])
                sol = orbit.solve(prob, tol=ORBIT_TOL, seed=spec["seed"],
                                  realization=spec["realization"])
                return prob, sol
            label = f"{spec['realization']} {spec['kind']} n={spec['n']}"
            ops.append((label, spec, op))
        return ops

    @staticmethod
    def settle(out: Outcome) -> None:
        out.ok = True
        out.verdicts = 1

    def check(self, outcomes: list) -> list:
        from scipy import linalg as sla

        problems = []
        for out in outcomes:
            if not out.ok:
                continue
            prob, sol = out.result
            spec = out.meta
            x, y, z = spec["x"].mat, spec["y"].mat, prob.z.mat
            u, v = sol.u.mat, sol.v.mat
            eye = np.eye(x.shape[0])
            where = f"{out.label} seed {spec['seed']}"
            resid = float(np.abs(u @ x @ u.conj().T + v @ y @ v.conj().T - z).max())
            unitary = max(float(np.abs(u.conj().T @ u - eye).max()),
                          float(np.abs(v.conj().T @ v - eye).max()))
            if resid > ORBIT_TOL or unitary > 1e-8:
                problems.append(f"{where}: residual {resid:.2e}, unitarity defect {unitary:.2e}")
            tr_gap = abs(np.trace(z).real - np.trace(x).real - np.trace(y).real)
            if tr_gap > 1e-9 * max(1.0, abs(np.trace(z).real)):
                problems.append(f"{where}: trace condition misses by {tr_gap:.2e}")
            if spec["realization"] == "slr":
                if np.abs(u.imag).max() > 0 or np.linalg.det(u.real) <= 0.0 \
                        or np.abs(v.imag).max() > 0 or np.linalg.det(v.real) <= 0.0:
                    problems.append(f"{where}: factors not in SO(n)")
            if spec["kind"] == "exp_product":
                half = sla.expm(x / 2.0)
                z_ref = sla.logm(half @ sla.expm(y) @ half)
                err = float(np.abs(z - z_ref).max()) / max(1.0, float(np.abs(z_ref).max()))
                if err > 1e-9:
                    problems.append(f"{where}: Z differs from scipy logm/expm by {err:.2e}")
        return problems


WORKLOADS = {w.name: w for w in (VerifyAll, SpectraLarge, OrbitSolve)}
