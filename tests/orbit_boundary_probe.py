"""The orbit solver's boundary probe: 600 seeded solves on targets at the
edge of the orbit sum, summarized as JSON.

Cells: realization (glc, slr) x n (2..6) x seed s (0..29) x arrangement, in
that nesting order.  With X = sample(n, 900000 + 10 s + n) and
Y = sample(n, 900001 + 10 s + n) in the realization's space, the target is
diagonal, on the boundary of the sum of the orbits of X and Y:

    aligned   Z = diag(lambda_down(X) + lambda_down(Y))
    reversed  Z = diag(lambda_down(X) + lambda_up(Y))

and the solve seed is s.  At a solution both conjugates are diagonal and
commute, so the linearized residual loses rank there, and a start can
stall or spend its budget.  Each solve runs with the default tolerance and
budgets.  A failure is a solve that ``suites.solve_passes`` rejects, the
judgment of the orbit suites; a converged solve that it rejects (a
non-monotone trace, too many restarts, ``verify_membership`` false or a
factor outside the realization's K) counts also as unverified.  The
script prints the totals (solves, failures, unverified, iterations,
restarts, Gauss-Newton steps, solver seconds) and each failed case.  It exits 1 only if a solve raises something other than
``MaxIterReached`` or a converged solve is unverified.  It is not a
pytest module; run it as

    PYTHONPATH=src python tests/orbit_boundary_probe.py
"""

from __future__ import annotations

import itertools
import json
import sys
import time

import numpy as np

from spdmeans import HermitianMatrix, OrbitProblem, eig_hermitian
from spdmeans.errors import MaxIterReached
from spdmeans.orbit import solve
from spdmeans.realizations import REALIZATIONS
from spdmeans.suites import solve_passes

SIZES = tuple(range(2, 7))
SEEDS = tuple(range(30))
ARRANGEMENTS = ("aligned", "reversed")


def problem(realization: str, n: int, s: int, arrangement: str) -> OrbitProblem:
    """The boundary instance of one probe case."""
    space = REALIZATIONS[realization]
    x = space.sample(n, 900000 + 10 * s + n)
    y = space.sample(n, 900001 + 10 * s + n)
    lam_y = eig_hermitian(y).values
    if arrangement == "reversed":
        lam_y = lam_y[::-1]
    z = HermitianMatrix._wrap(np.diag(eig_hermitian(x).values + lam_y).astype(complex))
    return OrbitProblem(x=x, y=y, kind="exp_product", z=z)


def run() -> dict:
    totals = {"solves": 0, "failures": 0, "unverified": 0, "iterations": 0,
              "restarts": 0, "gauss_newton_steps": 0, "solve_s": 0.0}
    failed = []
    grid = itertools.product(REALIZATIONS, SIZES, SEEDS, ARRANGEMENTS)
    for realization, n, s, arrangement in grid:
        prob = problem(realization, n, s, arrangement)
        start = time.perf_counter()
        try:
            sol = solve(prob, seed=s, realization=realization)
        except MaxIterReached as exc:
            sol = exc.solution
        totals["solve_s"] += time.perf_counter() - start
        totals["solves"] += 1
        for key in ("iterations", "restarts", "gauss_newton_steps"):
            totals[key] += getattr(sol, key)
        ok = solve_passes(realization, prob, sol)
        totals["unverified"] += sol.converged and not ok
        if ok:
            continue
        totals["failures"] += 1
        failed.append(f"{realization} n={n} seed={s} {arrangement} {sol.stop_reason} "
                      f"resid={sol.residual:.2e} restarts={sol.restarts}")
    totals["solve_s"] = round(totals["solve_s"], 3)
    return {**totals, "failed": failed}


if __name__ == "__main__":
    summary = run()
    print(json.dumps(summary, indent=1))
    sys.exit(1 if summary["unverified"] else 0)
