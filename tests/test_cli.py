import errno
import json
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from spdmeans import MaxIterReached, gtchain, orbit, save_matrix, suites
from spdmeans.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def reference_pair_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_matrix(a, np.array([[6.0, -3.0], [-3.0, 4.0]], dtype=complex))
    save_matrix(b, np.array([[4.0, -2.0], [-2.0, 5.0]], dtype=complex))
    return str(a), str(b)


class TestMeanCommand:
    def test_spectral_prints_reference_matrix(self, runner, reference_pair_files):
        a, b = reference_pair_files
        result = runner.invoke(
            main, ["mean", "--kind", "spectral", "--t", "0.5", "--a", a, "--b", b]
        )
        assert result.exit_code == 0
        assert "4.8992" in result.output
        assert "-2.4896" in result.output
        assert "4.4273" in result.output

    def test_geometric_prints_reference_matrix(self, runner, reference_pair_files):
        a, b = reference_pair_files
        result = runner.invoke(main, ["mean", "--kind", "geometric", "--a", a, "--b", b])
        assert result.exit_code == 0
        assert "4.8990" in result.output

    def test_missing_file_exits_2(self, runner, reference_pair_files):
        _, b = reference_pair_files
        result = runner.invoke(
            main, ["mean", "--kind", "spectral", "--a", "/nonexistent.json", "--b", b]
        )
        assert result.exit_code == 2

    def test_non_spd_input_exits_2(self, runner, tmp_path, reference_pair_files):
        bad = tmp_path / "bad.json"
        save_matrix(bad, np.diag([1.0, -1.0]).astype(complex))
        _, b = reference_pair_files
        result = runner.invoke(
            main, ["mean", "--kind", "geometric", "--a", str(bad), "--b", b]
        )
        assert result.exit_code == 2

    def test_ill_conditioned_pair_exits_0(self, runner, tmp_path):
        # cond(A) cond(B) = 4.4e19, where a product form of the means came
        # out numerically indefinite.  The printed and saved mean is the
        # library's, within tests/test_means.py's bound of the fixture.
        from spdmeans import SpdMatrix, load_matrix, random_spd, spectral_mean

        fixture = Path(__file__).parent / "data" / "mean_reference.json"
        (case,) = [c for c in json.loads(fixture.read_text())["cases"]
                   if c["seeds"] == [3002, 3003]]
        want = np.array(case["means"]["natural"]["0.3"]["re"]) + 1j * np.array(
            case["means"]["natural"]["0.3"]["im"]
        )
        a_mat, b_mat = random_spd(4, 3002, 14).mat, random_spd(4, 3003, 14).mat
        a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "mean.json"
        save_matrix(a, a_mat)
        save_matrix(b, b_mat)
        result = runner.invoke(
            main,
            ["mean", "--kind", "spectral", "--t", "0.3", "--a", str(a), "--b", str(b),
             "--out", str(out)],
        )
        assert result.exit_code == 0
        got = load_matrix(out).mat
        assert np.array_equal(got, spectral_mean(SpdMatrix(a_mat), SpdMatrix(b_mat), 0.3).mat)
        conds = [v[-1] / v[0] for v in np.linalg.eigvalsh(np.stack([a_mat, b_mat]))]
        bound = 32.0 * np.sqrt(np.prod(conds)) * np.finfo(float).eps
        assert np.abs(got - want).max() / np.abs(want).max() <= bound

    def test_out_file(self, runner, reference_pair_files, tmp_path):
        a, b = reference_pair_files
        out = tmp_path / "mean.json"
        result = runner.invoke(
            main, ["mean", "--kind", "geometric", "--a", a, "--b", b, "--out", str(out)]
        )
        assert result.exit_code == 0
        obj = json.loads(out.read_text())
        assert obj["n"] == 2


class TestVerifyCommand:
    def test_single_suite_passes(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "golden", "--seed", "7"])
        assert result.exit_code == 0
        assert "counterexamples: pass" in result.output

    def test_requires_suite_or_all(self, runner):
        result = runner.invoke(main, ["verify"])
        assert result.exit_code == 2

    def test_suite_and_all_together_exit_2(self, runner):
        # Neither flag wins silently: the run stops before any suite.
        result = runner.invoke(main, ["verify", "--suite", "means", "--all"])
        assert result.exit_code == 2
        assert result.output == "error: choose --suite NAME or --all, not both\n"

    def test_report_file_schema(self, runner, tmp_path):
        out = tmp_path / "report.csv"
        result = runner.invoke(
            main,
            ["verify", "--suite", "logmaj", "--trials", "4", "--out", str(out)],
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# spdmeans-report v1"
        assert lines[1] == "suite,seed,trial,n,t,property,status,margin"
        assert len(lines) == 2 + 4 * 2  # two rows per trial

    def test_timings_go_to_stderr_only(self, runner, tmp_path):
        # --timings prints one wall time per suite to stderr; the CSV and
        # stdout are byte-identical to a run without it.
        outputs = []
        for flags in ([], ["--timings"]):
            out = tmp_path / f"report{len(flags)}.csv"
            args = ["verify", "--all", "--trials", "2", "--seed", "3", "--out", str(out)]
            result = runner.invoke(main, args + flags)
            assert result.exit_code == 0, result.output
            outputs.append((out.read_bytes(), result.stdout, result.stderr))
        (csv0, stdout0, stderr0), (csv1, stdout1, stderr1) = outputs
        assert csv0 == csv1 and stdout0 == stdout1
        assert stderr0 == ""
        lines = stderr1.splitlines()
        names = [line.split(":")[0].removeprefix("time ") for line in lines]
        assert names == list(suites.ALL_SUITES)
        assert all(line.endswith(" s") and float(line.split()[-2]) >= 0.0 for line in lines)

    def test_failure_exits_1(self, runner, monkeypatch):
        failing = suites.SuiteResult("fake")
        failing.rows.append(
            suites.Row("fake", 0, 0, 2, None, "broken_property", False, -1.0)
        )
        monkeypatch.setattr(suites, "run_suite", lambda *a, **k: failing)
        result = runner.invoke(main, ["verify", "--suite", "golden"])
        assert result.exit_code == 1
        assert "FAIL" in result.output

    @pytest.mark.parametrize("realization", ["glc", "slr"])
    def test_failure_lines_and_reproduction(self, runner, monkeypatch, realization):
        failing = suites.SuiteResult("fake", seed=5, rows=[
            suites.Row("fake", 5, 3, 4, 0.25, "broken_property", False, -1.0),
            suites.Row("fake", 5, 4, 2, None, "other_property", False, 2.5e-3),
        ])
        monkeypatch.setattr(suites, "run_suite", lambda *a, **k: failing)
        result = runner.invoke(
            main,
            ["verify", "--suite", "means", "--seed", "5", "--trials", "7",
             "--realization", realization],
        )
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert "  fail: broken_property trial=3 n=4 t=0.25 margin=-1.000e+00" in lines
        assert "  fail: other_property trial=4 n=2 t=- margin=2.500e-03" in lines
        again = "  reproduce: spdmeans verify --suite means --seed 5 --trials 7"
        if realization == "slr":
            again += " --realization slr"
        assert lines[-1] == again

    @pytest.mark.parametrize(
        "suite,is_solve_row",
        [
            ("orbit", lambda prop: prop.endswith("_solved")),
            ("realization", lambda prop: prop.startswith("orbit_")),
        ],
        ids=["orbit", "realization"],
    )
    def test_unconverged_solve_fails_its_row(
        self, runner, tmp_path, monkeypatch, suite, is_solve_row
    ):
        # A solve that stops above tolerance is a failed check (exit 1, the
        # report written), not bad input (exit 2); its row's margin is the
        # best residual the solver carried out.
        best = []

        def stopped(prob, **kwargs):
            try:
                return orbit.solve(prob, **kwargs, max_iter=1)
            except MaxIterReached as exc:
                best.append(exc.solution.residual)
                raise

        monkeypatch.setattr(suites, "solve", stopped)
        out = tmp_path / "r.csv"
        result = runner.invoke(
            main, ["verify", "--suite", suite, "--seed", "42", "--out", str(out)]
        )
        assert result.exit_code == 1, result.output
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        solve_rows = [row for row in rows if is_solve_row(row[5])]
        assert best and len(solve_rows) == len(best)
        assert all(row[6] == "fail" for row in solve_rows)
        assert [row[7] for row in solve_rows] == [f"{r:.12e}" for r in best]
        printed = [line for line in result.output.splitlines() if "  fail: " in line]
        assert printed
        for line, residual in zip(printed, best):
            assert is_solve_row(line.split()[1])
            assert line.endswith(f"margin={residual:.3e}")

    def test_chain_seed_23_passes(self, runner):
        # Trial 0 has a Trotter distance that rises from r=4 to r=8; only
        # the limit r -> 0 is a theorem.
        result = runner.invoke(main, ["verify", "--suite", "chain", "--seed", "23"])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exits_2(self, runner, trials):
        result = runner.invoke(main, ["verify", "--suite", "means", "--trials", trials])
        assert result.exit_code == 2
        assert "pass" not in result.output

    @pytest.mark.parametrize(
        "args", [["verify", "--suite", "chain"], ["orbit-solve", "--kind", "geo"]]
    )
    def test_negative_seed_exits_2_naming_the_option(self, runner, args):
        result = runner.invoke(main, args + ["--seed", "-1"])
        assert result.exit_code == 2
        assert "--seed" in result.output

    def test_means_row_count(self, runner, tmp_path):
        out = tmp_path / "means.csv"
        result = runner.invoke(
            main,
            ["verify", "--suite", "means", "--trials", "3", "--seed", "7", "--out", str(out)],
        )
        assert result.exit_code == 0
        rows = out.read_text().splitlines()[2:]
        from spdmeans.means import IDENTITY_NAMES

        assert len(rows) == 3 * len(IDENTITY_NAMES)

    @pytest.mark.parametrize("trials,rows", [("8", 24), ("25", 72)])
    def test_realization_row_count_follows_trials(self, runner, tmp_path, trials, rows):
        # trials // 8 trials (at least one), each of 8 rows at n = 2, 3, 4.
        out = tmp_path / "realization.csv"
        result = runner.invoke(
            main, ["verify", "--suite", "realization", "--trials", trials, "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()[2:]) == rows


class TestScanCommand:
    def test_scan_csv(self, runner, tmp_path):
        from spdmeans import random_hermitian

        x = tmp_path / "x.json"
        y = tmp_path / "y.json"
        save_matrix(x, random_hermitian(3, 5, 0.5).mat)
        save_matrix(y, random_hermitian(3, 6, 0.5).mat)
        out = tmp_path / "scan.csv"
        result = runner.invoke(
            main,
            ["scan", "--x", str(x), "--y", str(y), "--r-grid", "0.5,1,2", "--out", str(out)],
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# spdmeans-scan v1"
        header = lines[1].split(",")
        assert header[0] == "r"
        assert "tr_phi" in header and "psi_above_exp" in header
        assert len(lines) == 2 + 3

    def test_scan_rejects_bad_grid(self, runner, tmp_path):
        from spdmeans import random_hermitian

        x = tmp_path / "x.json"
        save_matrix(x, random_hermitian(2, 5, 0.5).mat)
        # A decreasing grid, and an empty or blank one that was given.
        for grid in ("2,1", "", " "):
            result = runner.invoke(
                main, ["scan", "--x", str(x), "--y", str(x), "--r-grid", grid]
            )
            assert result.exit_code == 2, grid
            assert result.output.startswith("error: "), grid

    # X = Y = scale I.  At r = 700 the exponentials are finite and a product
    # inside a mean overflows; at scale 400 even r = 0.5 overflows e^{X+Y}.
    @pytest.mark.parametrize("grid,message,scale", [
        ("inf", "error: r grid must be finite", 1.0),
        ("nan", "error: r grid must be finite", 1.0),
        ("1e-6,1", "error: r grid must be strictly increasing from MIN_R = 2^-10", 1.0),
        ("1e-30,1", "error: r grid must be strictly increasing from MIN_R = 2^-10", 1.0),
        ("1000", "error: the scan overflows at r = 1000", 1.0),
        ("700", "error: the scan overflows at r = 700", 1.0),
        ("0.5", "error: the scan overflows at r = 0.5", 400.0),
    ])
    def test_scan_infinite_or_overflowing_r_exits_2(self, runner, tmp_path, grid, message, scale):
        eye = tmp_path / "eye.json"
        save_matrix(eye, scale * np.eye(2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(
                main, ["scan", "--x", str(eye), "--y", str(eye), "--r-grid", grid]
            )
        assert result.exit_code == 2
        assert result.output.startswith(message)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


    def test_scan_far_past_the_range_exits_2(self, runner, tmp_path):
        from spdmeans import random_unitary

        u = random_unitary(2, 4).mat
        x, y = tmp_path / "x.json", tmp_path / "y.json"
        save_matrix(x, u @ np.diag([213.0, -213.0]) @ u.conj().T)
        save_matrix(y, np.zeros((2, 2)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(
                main, ["scan", "--x", str(x), "--y", str(y), "--r-grid", "1"]
            )
        assert result.exit_code == 2
        assert result.output.startswith("error: e^{rX} at r = 1 is not positive definite")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_failed_chain_check_exits_1_and_writes_the_csv(self, runner, tmp_path, monkeypatch):
        # One phi_below_exp_sum check pushed below its tolerance: a failed
        # property, so exit 1, and the report is still written with its cell.
        from spdmeans import random_hermitian

        def failing(chain):
            report = gtchain.evaluate_chain(chain)
            k = list(report.family).index(gtchain.CHAIN_FAMILIES.index("phi_below_exp_sum"))
            report.margin[k] = -report.tol[k] - 1.0
            return report

        monkeypatch.setattr("spdmeans.cli.evaluate_chain", failing)
        x, y, out = tmp_path / "x.json", tmp_path / "y.json", tmp_path / "scan.csv"
        save_matrix(x, random_hermitian(3, 5, 0.5).mat)
        save_matrix(y, random_hermitian(3, 6, 0.5).mat)
        result = runner.invoke(
            main, ["scan", "--x", str(x), "--y", str(y), "--r-grid", "0.5,1", "--out", str(out)]
        )
        assert result.exit_code == 1, result.output
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert [row[-2:] for row in rows] == [["false", "true"], ["true", "true"]]

    @pytest.mark.parametrize("n,grid", [(6, None), (6, "0.5"), (1, None)],
                             ids=["default-grid", "one-point", "n1"])
    def test_scan_cells_match_the_report(self, runner, tmp_path, monkeypatch, n, grid):
        # Every third check fails, out of step with the two verdict cells
        # per r, so a row whose cells are not its r's phi_below_exp_sum and
        # psi_above_exp_sum checks (looked up by name here) shows.  The
        # cumulative-log cells are a per-row cumsum of the logs.
        from spdmeans import DEFAULT_R_GRID, load_hermitian, random_hermitian

        reports = []

        def failing(chain):
            report = gtchain.evaluate_chain(chain)
            report.margin[::3] = -report.tol[::3] - 1.0
            reports.append(report)
            return report

        monkeypatch.setattr("spdmeans.cli.evaluate_chain", failing)
        xm, ym = random_hermitian(n, 42, 0.5), random_hermitian(n, 43, 0.5)
        x, y, out = tmp_path / "x.json", tmp_path / "y.json", tmp_path / "scan.csv"
        save_matrix(x, xm.mat)
        save_matrix(y, ym.mat)
        args = ["scan", "--x", str(x), "--y", str(y), "--out", str(out)]
        result = runner.invoke(main, args + (["--r-grid", grid] if grid else []))
        assert result.exit_code == 1, result.output
        # The reference scan reads the files the CLI read: a seeded draw
        # carries the eigenpairs it was built from, a loaded matrix gets a
        # fresh eigh, and the two scans differ in the last bits.
        scan = gtchain.scan_chain(load_hermitian(x), load_hermitian(y),
                                  (0.5,) if grid else DEFAULT_R_GRID)
        rep = reports[0]
        holds = {(gtchain.CHAIN_FAMILIES[f], r): str(h).lower()
                 for f, r, h in zip(rep.family, rep.r.tolist(), rep.holds)}
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        m = len(scan.r_grid)
        assert len(rows) == m
        for k, (row, r) in enumerate(zip(rows, scan.r_grid)):
            lam_phi, lam_psi = scan.spectra[k], scan.spectra[m + k]
            cumlogs = [*np.cumsum(np.log(lam_phi)), *np.cumsum(np.log(lam_psi))]
            traces = scan.traces[[k, m + k, -1]]
            assert row[0] == f"{r:.6g}"
            assert row[1:-2] == [f"{v:.12e}" for v in (*cumlogs, *traces)]
            assert row[-2:] == [holds["phi_below_exp_sum", r], holds["psi_above_exp_sum", r]]
        assert {cell for row in rows for cell in row[-2:]} == {"true", "false"}


class TestOrbitSolveCommand:
    def test_seeded_run_emits_json(self, runner, tmp_path):
        out = tmp_path / "sol.json"
        trace = tmp_path / "trace.csv"
        result = runner.invoke(
            main,
            [
                "orbit-solve", "--kind", "exp", "--n", "3", "--seed", "4",
                "--out", str(out), "--trace-csv", str(trace),
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert payload["residual"] <= 1e-8
        assert payload["u"]["n"] == 3
        trace_lines = trace.read_text().splitlines()
        assert trace_lines[1] == "iteration,objective"
        values = [float(line.split(",")[1]) for line in trace_lines[2:]]
        assert all(b <= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("realization", ["glc", "slr"])
    def test_trace_reads_back_to_the_objective_bits(self, runner, tmp_path, realization):
        # Each f is written with 17 significant digits, so every row parses
        # back to the solver's float64 f exactly.
        from spdmeans import OrbitProblem, solve
        from spdmeans.realizations import REALIZATIONS

        trace = tmp_path / "trace.csv"
        result = runner.invoke(main, ["orbit-solve", "--kind", "spec", "--n", "8", "--seed", "42",
                                      "--realization", realization, "--trace-csv", str(trace)])
        assert result.exit_code == 0, result.output
        space = REALIZATIONS[realization]
        prob = OrbitProblem.create(space.sample(8, 42, 1.0), space.sample(8, 43, 1.0), "spectral")
        expected = solve(prob, seed=42, realization=realization).objective_trace
        lines = trace.read_text().splitlines()
        assert lines[:2] == ["# spdmeans-objective-trace v2", "iteration,objective"]
        rows = [line.split(",") for line in lines[2:]]
        assert [int(k) for k, _ in rows] == list(range(len(expected)))
        assert [float(f) for _, f in rows] == expected

    def test_json_reports_stop_reason_and_steps(self, runner):
        result = runner.invoke(
            main, ["orbit-solve", "--kind", "geo", "--n", "4", "--seed", "7"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["stop_reason"] == "converged"
        steps = payload["gauss_newton_steps"]
        assert isinstance(steps, int)
        assert steps >= payload["iterations"]

    def test_budget_stop_reason_exits_1(self, runner):
        result = runner.invoke(
            main,
            ["orbit-solve", "--kind", "spec", "--n", "4", "--max-iter", "1", "--tol", "1e-14"],
        )
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["converged"] is False
        assert payload["stop_reason"] == "budget"

    def test_zero_tol_exits_2(self, runner):
        # solve raises ParamOutOfRange, which carries no solution: bad input.
        result = runner.invoke(main, ["orbit-solve", "--kind", "exp", "--tol", "0"])
        assert result.exit_code == 2
        assert result.output.startswith("error: tol must be positive")

    def test_input_files_and_slr(self, runner, tmp_path):
        from spdmeans import random_real_symmetric_traceless

        x = tmp_path / "x.json"
        y = tmp_path / "y.json"
        save_matrix(x, random_real_symmetric_traceless(3, 1).mat)
        save_matrix(y, random_real_symmetric_traceless(3, 2).mat)
        result = runner.invoke(
            main,
            [
                "orbit-solve", "--kind", "geo", "--input", str(x), str(y),
                "--realization", "slr",
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        u = np.array(
            [[complex(re, im) for re, im in row] for row in payload["u"]["entries"]]
        )
        assert np.abs(u.imag).max() == 0.0
        assert np.linalg.det(u.real) == pytest.approx(1.0, abs=1e-8)

    def test_numerically_indefinite_target_exits_2(self, runner, tmp_path):
        from spdmeans import random_hermitian

        x = tmp_path / "x.json"
        y = tmp_path / "y.json"
        save_matrix(x, random_hermitian(4, 7026, 12.0).mat)
        save_matrix(y, random_hermitian(4, 7027, 12.0).mat)
        result = runner.invoke(
            main, ["orbit-solve", "--kind", "exp", "--input", str(x), str(y)]
        )
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert "not positive definite" in result.output

    @pytest.mark.parametrize("kind", ["exp", "geo", "spec"])
    def test_overflowing_target_exits_2_without_warnings(self, runner, tmp_path, kind):
        from spdmeans import random_unitary

        u = random_unitary(2, 4).mat
        x = tmp_path / "x.json"
        y = tmp_path / "y.json"
        save_matrix(x, u @ np.diag([400.0, -400.0]) @ u.conj().T)
        save_matrix(y, np.diag([360.0, -360.0]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(
                main, ["orbit-solve", "--kind", kind, "--input", str(x), str(y)]
            )
        assert result.exit_code == 2
        assert result.output.startswith("error: the target's factors leave the float range")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_missing_input_file_exits_2(self, runner, tmp_path):
        from spdmeans import random_hermitian

        x = tmp_path / "x.json"
        save_matrix(x, random_hermitian(2, 1).mat)
        result = runner.invoke(
            main,
            ["orbit-solve", "--kind", "exp", "--input", str(x), str(tmp_path / "nope.json")],
        )
        assert result.exit_code == 2

    def test_bad_budget_exits_2(self, runner):
        result = runner.invoke(main, ["orbit-solve", "--kind", "exp", "--max-iter", "-5"])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")

    def test_readme_example(self, runner, tmp_path, monkeypatch):
        """Every ``spdmeans`` line of the README runs on files written here,
        and so does the Library block."""
        from spdmeans import random_invertible, random_real_symmetric_traceless

        readme = (Path(__file__).parents[1] / "README.md").read_text()
        lines = [ln for ln in readme.splitlines() if ln.startswith("spdmeans ")]
        assert lines
        monkeypatch.chdir(tmp_path)
        save_matrix("a.json", np.array([[6.0, -3.0], [-3.0, 4.0]], dtype=complex))
        save_matrix("b.json", np.array([[4.0, -2.0], [-2.0, 5.0]], dtype=complex))
        save_matrix("x.json", random_real_symmetric_traceless(3, 1).mat)
        save_matrix("y.json", random_real_symmetric_traceless(3, 2).mat)
        save_matrix("f.json", np.diag([2.0, 2.0]).astype(complex))
        save_matrix("g.json", np.diag([4.0, 1.0]).astype(complex))
        save_matrix("m.json", random_invertible(3, 5).mat)
        for line in lines:
            args = shlex.split(line)[1:]
            result = runner.invoke(main, args)
            assert result.exit_code == 0, (line, result.output)
            if "--out" in args:
                assert (tmp_path / args[args.index("--out") + 1]).stat().st_size > 0

        block = readme.split("## Library")[1].split("```python\n")[1].split("```")[0]
        exec(compile(block, "README.md", "exec"), {})


class TestKostantCommand:
    def test_verdict_and_margins(self, runner, tmp_path):
        f = tmp_path / "f.json"
        g = tmp_path / "g.json"
        save_matrix(f, np.diag([2.0, 2.0]).astype(complex))
        save_matrix(g, np.diag([4.0, 1.0]).astype(complex))
        result = runner.invoke(main, ["kostant", "--f", str(f), "--g", str(g)])
        assert result.exit_code == 0
        assert result.output.startswith("f <=_G g")
        assert "partial-sum margin" in result.output

    def test_singular_exits_2(self, runner, tmp_path):
        f = tmp_path / "f.json"
        save_matrix(f, np.diag([1.0, 0.0]).astype(complex))
        result = runner.invoke(main, ["kostant", "--f", str(f), "--g", str(f)])
        assert result.exit_code == 2


class TestCompoundCommand:
    def test_diagonal(self, runner, tmp_path):
        m = tmp_path / "m.json"
        save_matrix(m, np.diag([1.0, 2.0, 3.0]).astype(complex))
        result = runner.invoke(main, ["compound", "--input", str(m), "--k", "2"])
        assert result.exit_code == 0
        assert "6.000000" in result.output

    def test_bad_order_exits_2(self, runner, tmp_path):
        m = tmp_path / "m.json"
        save_matrix(m, np.eye(2, dtype=complex))
        result = runner.invoke(main, ["compound", "--input", str(m), "--k", "5"])
        assert result.exit_code == 2

    def test_order_too_large_for_memory_exits_2(self, runner, tmp_path):
        # The 10th compound of a 20 x 20 matrix gathers C(20, 10)^2 blocks of
        # 10 x 10, 49.7 TiB, which numpy refuses before allocating anything.
        from spdmeans import random_spd

        m = tmp_path / "m.json"
        save_matrix(m, random_spd(20, 5).mat)
        result = runner.invoke(main, ["compound", "--input", str(m), "--k", "10"])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: Unable to allocate 49.7 TiB")
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.output


class TestMatrixFileValidation:
    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 1, "entries": 5},
            {"n": True, "entries": [[[1.0, 0.0]]]},
            {"n": 1, "entries": [[[None, 0.0]]]},
            {"n": 1, "entries": [[[10**400, 0.0]]]},
        ],
        ids=["entries-not-a-grid", "n-is-bool", "null-entry", "int-beyond-float"],
    )
    def test_malformed_file_exits_2(self, runner, tmp_path, obj):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        result = runner.invoke(main, ["compound", "--input", str(path), "--k", "1"])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")


class TestErrorBoundary:
    """A report path that cannot be written exits 2 with one ``error:`` line
    on stderr, after the work is done, and without a traceback."""

    @pytest.mark.parametrize(
        "args",
        [
            ["mean", "--kind", "geometric", "--a", "{a}", "--b", "{b}", "--out", "{out}"],
            ["scan", "--x", "{x}", "--y", "{y}", "--r-grid", "0.5,1", "--out", "{out}"],
            ["verify", "--suite", "golden", "--out", "{out}"],
            ["orbit-solve", "--kind", "exp", "--n", "3", "--seed", "4", "--out", "{out}"],
            ["orbit-solve", "--kind", "exp", "--n", "3", "--seed", "4", "--trace-csv", "{out}"],
            ["compound", "--input", "{m}", "--k", "2", "--out", "{out}"],
        ],
        ids=["mean", "scan", "verify", "orbit-solve-out", "orbit-solve-trace", "compound"],
    )
    def test_missing_directory_exits_2(self, runner, tmp_path, reference_pair_files, args):
        from spdmeans import random_hermitian

        a, b = reference_pair_files
        paths = {"a": a, "b": b, "out": str(tmp_path / "missing" / "report")}
        for name, mat in (
            ("x", random_hermitian(3, 5, 0.5).mat),
            ("y", random_hermitian(3, 6, 0.5).mat),
            ("m", np.diag([1.0, 2.0, 3.0]).astype(complex)),
        ):
            paths[name] = str(tmp_path / f"{name}.json")
            save_matrix(paths[name], mat)
        result = runner.invoke(main, [arg.format(**paths) for arg in args])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "Traceback" not in result.output
        assert not (tmp_path / "missing").exists()

    def test_broken_pipe_is_left_to_click(self, runner, monkeypatch):
        # click turns a broken stdout pipe into a quiet exit 1.
        def closed(text, out):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr("spdmeans.cli._write_text", closed)
        result = runner.invoke(main, ["orbit-solve", "--kind", "exp", "--n", "3"])
        assert result.exit_code == 1
        assert "error:" not in result.output


class TestDeterminism:
    def test_verify_all_byte_identical(self, tmp_path):
        """Two fresh-process runs with one seed produce identical bytes."""
        reports = []
        stdouts = []
        for run in range(2):
            out = tmp_path / f"report_{run}.csv"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "spdmeans.cli", "verify", "--all",
                    "--trials", "5", "--seed", "42", "--out", str(out),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            reports.append(out.read_bytes())
            stdouts.append(proc.stdout)
        assert reports[0] == reports[1]
        assert stdouts[0] == stdouts[1]
