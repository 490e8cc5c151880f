"""The orbit solver's stress set: 1344 seeded solves, summarized as JSON.

Cells: realization (glc, slr) x n (2..8) x input family x scale (1, 3) x
target kind (exp_product, geometric, spectral), in that nesting order, and
4 seeds per cell, s = 100000 + 1000 * cell + 7 * k; the solve seed is s.
The input families, each projected into the realization's space:

    standard        X = sample(n, s, scale), Y = sample(n, s + 1, scale)
    near_commuting  Y = 0.5 X^2 / scale + 0.3 X + 1e-6 sample(n, s + 1)
    shared_spectrum Y = Q diag(lambda(X)) Q*, Q = random_factor(n, s + 2)
    rank_one        Y = scale w w* for a seeded random unit vector w

Each solve runs with the default tolerance and budgets.  A failure is a
solve that ``suites.solve_passes`` rejects, the judgment of the orbit
suites: residual above ORBIT_TOL (``MaxIterReached`` included), a
non-monotone objective trace, too many restarts, ``verify_membership``
false or a factor outside the realization's K.  The script prints
the totals (solves, failures, iterations, restarts, Gauss-Newton steps,
solver seconds) and each failed case, and exits 1 if any solve failed.
It is not a pytest module; run it as

    PYTHONPATH=src python tests/orbit_stress_set.py
"""

from __future__ import annotations

import itertools
import json
import sys
import time

import numpy as np

from spdmeans import HermitianMatrix, OrbitProblem, eig_hermitian
from spdmeans.errors import MaxIterReached
from spdmeans.orbit import TARGET_KINDS, solve
from spdmeans.realizations import REALIZATIONS
from spdmeans.suites import solve_passes

FAMILIES = ("standard", "near_commuting", "shared_spectrum", "rank_one")
SIZES = tuple(range(2, 9))
SCALES = (1.0, 3.0)
SEEDS_PER_CELL = 4


def inputs(realization: str, n: int, family: str, scale: float, s: int):
    """X and Y of one stress case."""
    space = REALIZATIONS[realization]
    x = space.sample(n, s, scale)
    if family == "standard":
        return x, space.sample(n, s + 1, scale)
    if family == "near_commuting":
        noise = space.sample(n, s + 1, 1.0).mat
        y = 0.5 * x.mat @ x.mat / scale + 0.3 * x.mat + 1e-6 * noise
    elif family == "shared_spectrum":
        q = space.random_factor(n, s + 2)
        y = (q * eig_hermitian(x).values) @ q.conj().T
    else:
        rng = np.random.default_rng(s + 1)
        w = rng.standard_normal(n)
        if realization == "glc":
            w = w + 1j * rng.standard_normal(n)
        w = w / np.linalg.norm(w)
        y = scale * np.outer(w, w.conj())
    return x, space.project(HermitianMatrix(y))


def run() -> dict:
    totals = {"solves": 0, "failures": 0, "iterations": 0, "restarts": 0,
              "gauss_newton_steps": 0, "solve_s": 0.0}
    failed = []
    grid = itertools.product(REALIZATIONS, SIZES, FAMILIES, SCALES, TARGET_KINDS)
    for cell, (realization, n, family, scale, kind) in enumerate(grid):
        for s in (100000 + 1000 * cell + 7 * k for k in range(SEEDS_PER_CELL)):
            prob = OrbitProblem.create(*inputs(realization, n, family, scale, s), kind)
            start = time.perf_counter()
            try:
                sol = solve(prob, seed=s, realization=realization)
            except MaxIterReached as exc:
                sol = exc.solution
            totals["solve_s"] += time.perf_counter() - start
            ok = solve_passes(realization, prob, sol)
            totals["solves"] += 1
            for key in ("iterations", "restarts", "gauss_newton_steps"):
                totals[key] += getattr(sol, key)
            if not ok:
                totals["failures"] += 1
                failed.append(f"{realization} {family} n={n} scale={scale:g} {kind} "
                              f"seed={s} {sol.stop_reason} resid={sol.residual:.2e}")
    totals["solve_s"] = round(totals["solve_s"], 3)
    return {**totals, "failed": failed}


if __name__ == "__main__":
    summary = run()
    print(json.dumps(summary, indent=1))
    sys.exit(1 if summary["failures"] else 0)
