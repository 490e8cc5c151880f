import ast
import collections
import hashlib
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spdmeans
from spdmeans import OrbitProblem, scan_chain, suites
from spdmeans.orbit import TARGET_KINDS
from spdmeans.realizations import REALIZATIONS

# Row count and sha256 of the columns suite..status (margins left out: their
# trailing digits move across BLAS builds) of each suite's rows in
# ``spdmeans verify --all --seed 42``, in report order.
SEED_42_ROW_SETS = {
    "golden": (9, "301f318eed4e7f75d399d04c95f13a435c4c8148be7cf77ec41044b96b111b57"),
    "means": (375, "2fa6bbd4829cbabd4935d271bcdcd379b57f5b643b48c9f389fe9d4684f4d11c"),
    "logmaj": (50, "be52788efb842a351cec2ff918f95cbd0f340a4b55258552d8e8c997dd0592a0"),
    "compound": (150, "393f3e5b9d4ad9738b821a3b709d604d19085f12e623febd7b632eeaaf9f32b3"),
    "chain": (65, "5960bda826b9871a74cbe5dbc99d9f62f2eb24ec7c4874bf738bd1ffb724c27a"),
    "orbit": (24, "05e8352bf20432e790610f34719b7668ed4c346f1d3e0ccb71e53fe65cedd426"),
    "kostant": (77, "5fb4b4277477bc7f08e79df9f1d65015f982c645df231bb04bca452e5a2a863a"),
    "gradcheck": (25, "eb488ae500be72848a3f2438dba21b8a8212466255a56c53efcab88453754bf2"),
    "loewner": (25, "856d014f33d965fb58c373fd23711c12ab18de59de9f29c5d40b363039dc66af"),
    "realization": (72, "5870a5be84e0b3fd20c73438e23d6b140fe6c8c123ba6c032343bc4c479e6ab4"),
}


# The same digest of the orbit suite's rows in ``spdmeans verify --all --seed
# 42 --realization slr``.
SEED_42_SLR_ORBIT_ROW_SET = (
    24, "0e45da508dcdb71295a3f65ed5f353d9afae1c48b68ff58e5e14da6b4b4c6844"
)


def _row_set(result):
    cells = "".join(
        ",".join(row.as_csv().split(",")[:7]) + "\n" for row in result.rows
    )
    return len(result.rows), hashlib.sha256(cells.encode()).hexdigest()


def test_pins_cover_every_suite_in_order():
    assert tuple(SEED_42_ROW_SETS) == suites.ALL_SUITES


@pytest.mark.parametrize("name", list(SEED_42_ROW_SETS))
def test_verify_all_seed_42_row_set(name):
    result = suites.run_suite(name, seed=42, trials=25)
    assert _row_set(result) == SEED_42_ROW_SETS[name]


def test_verify_all_seed_42_slr_orbit_row_set():
    result = suites.run_suite("orbit", seed=42, trials=25, realization="slr")
    assert _row_set(result) == SEED_42_SLR_ORBIT_ROW_SET


@pytest.mark.parametrize(
    "name,realization", [("orbit", "glc"), ("orbit", "slr"), ("realization", "glc")]
)
def test_debug_logging_leaves_solver_rows_unchanged(caplog, name, realization):
    # Every cell, margins included, of the suites that run the solver (the
    # realization suite solves in slr whatever the report's realization).
    quiet = suites.run_suite(name, 42, 25, realization)
    caplog.set_level(logging.DEBUG, logger="spdmeans.orbit")
    loud = suites.run_suite(name, 42, 25, realization)
    assert [r.as_csv() for r in quiet.rows] == [r.as_csv() for r in loud.rows]


@pytest.mark.parametrize("name", suites.ALL_SUITES)
def test_rows_recompute_from_their_case_alone(monkeypatch, name):
    # Five seeded-random cases of each suite at CLI scale: the row function
    # run on one case alone gives that case's rows of the report, every
    # cell, margins included.
    runner = suites._run
    runs = []

    def recorded(suite, seed, cases, rows):
        sizes = []

        def counted(*case):
            out = list(rows(*case))
            sizes.append(len(out))
            return out

        runs.append((cases, rows, sizes))
        return runner(suite, seed, cases, counted)

    monkeypatch.setattr(suites, "_run", recorded)
    report = suites.run_suite(name, 42, 25)
    ((cases, rows, sizes),) = runs
    assert rows.__module__ == "spdmeans.suites"
    starts = np.cumsum([0] + sizes)
    picks = np.random.default_rng(5).choice(len(cases), min(5, len(cases)), replace=False)
    for k in sorted(picks):
        alone = runner(report.name, 42, [cases[k]], rows)
        case_rows = report.rows[starts[k]:starts[k + 1]]
        assert [r.as_csv() for r in alone.rows] == [r.as_csv() for r in case_rows]


class _DecompositionSpy:
    """Counts the LAPACK decompositions (np.linalg eigh, eigvalsh, svd) of
    each matrix by entry point and content, each member of a stack apart."""

    def __init__(self, monkeypatch):
        self.counts = collections.Counter()
        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, self._spy(name, getattr(np.linalg, name)))

    def _spy(self, name, lapack):
        def spy(arr, *args, **kwargs):
            arr = np.asarray(arr)
            for mat in arr.reshape(-1, *arr.shape[-2:]):
                self.counts[name, mat.shape, mat.tobytes()] += 1
            return lapack(arr, *args, **kwargs)
        return spy

    @property
    def repeats(self) -> int:
        return sum(self.counts.values()) - len(self.counts)


@pytest.mark.parametrize("realization", ["glc", "slr"])
def test_seeded_draws_are_not_decomposed_again(monkeypatch, realization):
    # A draw carries the eigenpairs it was built from: the targets of every
    # kind decompose nothing, and a chain scan of a fresh pair decomposes
    # only X + Y, for e^{X+Y}.
    sample = REALIZATIONS[realization].sample
    x, y, x2, y2 = (sample(5, seed) for seed in range(4))
    spy = _DecompositionSpy(monkeypatch)
    for kind in TARGET_KINDS:
        OrbitProblem.create(x, y, kind)
    assert not [key for key in spy.counts if key[0] != "svd"]
    scan_chain(x2, y2)
    eigen = {key: count for key, count in spy.counts.items() if key[0] != "svd"}
    assert eigen == {("eigh", (5, 5), (x2.mat + y2.mat).tobytes()): 1}


@pytest.mark.parametrize(
    "run",
    [
        lambda: suites.suite_compound(trials=4, seed=1),
        lambda: suites.suite_orbit(2, seed=1, n_values=(2, 3)),
        lambda: suites.suite_orbit(2, seed=1, n_values=(2, 3), realization="slr"),
        lambda: suites.suite_realization(seed=1, trials=2),
        lambda: suites.suite_kostant(trials=5, seed=1),
    ],
    ids=["compound", "orbit-glc", "orbit-slr", "realization", "kostant"],
)
def test_no_matrix_decomposed_twice(monkeypatch, run):
    spy = _DecompositionSpy(monkeypatch)
    run()
    assert spy.counts and spy.repeats == 0


def test_mean_identities_repeats_pinned(monkeypatch):
    # The one repeat: the row t = 1/2 of the t grid is the appended
    # parameter-free row, so its link to A^{-1} takes the same SVD twice.
    spy = _DecompositionSpy(monkeypatch)
    suites.suite_mean_identities(trials=1)
    assert spy.repeats == 1


def test_gradient_check_near_stationary_row():
    # At this row the directional derivative is -6.25e-7 against f = 0.161,
    # so the two-point difference at step 1e-6 read 1.4e-4 on rounding alone,
    # above GRADCHECK_TOL.  The five-point difference reads about 2e-7.
    (row,) = suites.suite_gradient_check(trials=1, seed=352002003).rows
    assert row.passed
    assert row.margin < 1e-6


def test_import_does_not_load_the_suites():
    # Keeps the suites (and what only they import) out of the import time of
    # every program that uses the library alone.
    src = Path(spdmeans.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, spdmeans; print('spdmeans.suites' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_realizations_is_a_leaf_with_one_deferred_import():
    # realizations imports only numpy, sampling and linalg at module level.
    # The one function-level import keeps suites out of a plain
    # ``import spdmeans``.
    imports = (ast.Import, ast.ImportFrom)
    nested, leaf = [], set()
    for path in sorted(Path(spdmeans.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        nested += [(path.stem, fn.name) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn) if isinstance(node, imports)]
        if path.stem == "realizations":
            leaf = {getattr(node, "module", None) or alias.name
                    for node in tree.body if isinstance(node, imports)
                    for alias in node.names}
    assert nested == [("realizations", "run_suites_on_realization")]
    assert leaf == {"__future__", "numpy", "sampling", "linalg"}
