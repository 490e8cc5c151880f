"""Batch front-end.

Subcommands compute means, scan Golden-Thompson chains, run verification
suites, solve orbit problems, compare matrices in the Kostant pre-order and
emit compound matrices.  Reports are CSV/JSON with fixed float formatting,
so a fixed seed reproduces byte-identical output.

Exit codes: 0 all checks passed, 1 a mathematical property failed beyond
tolerance, 2 bad input or configuration.  An output path that cannot be
written exits 2, after the work is done.  A data error outranks a failed
property (exit 2, not 1): one boundary on the command group turns every
library, file, value or memory error into one ``error:`` line, exit 2.
"""

from __future__ import annotations

import json
import sys
import time

import click
import numpy as np

from . import matio, suites
from .errors import MaxIterReached, SpdMeansError
from .gtchain import DEFAULT_R_GRID, evaluate_chain, scan_chain
from .kostant import kostant_report
from .majorization import compound
from .means import geometric_mean, spectral_mean
from .orbit import MAX_ITER, ORBIT_TOL, OrbitProblem, solve
from .realizations import REALIZATIONS

DATA_ERRORS = (SpdMeansError, OSError, ValueError, MemoryError)


def _fail_data(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _write_text(text: str, out) -> None:
    """Write a report to the file ``out``, or to stdout when it is None."""
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _print_matrix(mat: np.ndarray, digits: int = 4) -> None:
    reals = np.abs(mat.imag).max() <= 1e-12
    for row in mat:
        if reals:
            click.echo(" ".join(f"{z.real:.{digits}f}" for z in row))
        else:
            click.echo(
                " ".join(f"{z.real:.{digits}f}{z.imag:+.{digits}f}i" for z in row)
            )


class _Boundary(click.Group):
    """Sends a data error from reading, computing or writing to ``_fail_data``;
    a broken stdout pipe is left to click."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise
        except DATA_ERRORS as exc:
            _fail_data(str(exc))


@click.group(cls=_Boundary)
def main():
    """Geometric/spectral matrix means, majorization checks, orbit solver."""


@main.command()
@click.option("--kind", type=click.Choice(["geometric", "spectral"]), required=True)
@click.option("--t", "t", type=float, default=0.5, show_default=True)
@click.option("--a", "a_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--b", "b_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def mean(kind, t, a_path, b_path, out):
    """Compute a matrix mean of two SPD matrices from JSON files."""
    a = matio.load_spd(a_path)
    b = matio.load_spd(b_path)
    fn = geometric_mean if kind == "geometric" else spectral_mean
    result = fn(a, b, t)
    _print_matrix(result.mat)
    if out:
        matio.save_matrix(out, result.mat)


@main.command()
@click.option("--x", "x_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--y", "y_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option(
    "--r-grid",
    default=None,
    help="Comma-separated finite, strictly increasing values, each at least MIN_R = 2^-10, "
    "with r * spread(X or Y) below log(1e12) = 27.6.",
)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def scan(x_path, y_path, r_grid, out):
    """Golden-Thompson chain scan; emits CSV rows per grid point."""
    x = matio.load_hermitian(x_path)
    y = matio.load_hermitian(y_path)
    grid = (
        tuple(float(v) for v in r_grid.split(","))
        if r_grid is not None
        else DEFAULT_R_GRID
    )
    chain = scan_chain(x, y, grid)
    report = evaluate_chain(chain)
    n = x.n
    header = (
        ["r"]
        + [f"phi_cumlog_{k+1}" for k in range(n)]
        + [f"psi_cumlog_{k+1}" for k in range(n)]
        + ["tr_phi", "tr_psi", "tr_exp_sum", "phi_below_exp", "psi_above_exp"]
    )
    m = len(chain.r_grid)
    per_r = np.arange(m)[:, None] + [0, m]  # the operands phi(r), psi(r)
    cumlogs = np.cumsum(np.log(chain.spectra[per_r]), axis=-1).reshape(m, 2 * n)
    values = np.hstack([cumlogs, chain.traces[per_r], np.full((m, 1), chain.traces[-1])])
    # The first 2R checks are phi below and psi above e^{X+Y}, two per r.
    verdicts = np.where(report.holds[: 2 * m], "true", "false").reshape(m, 2)
    lines = ["# spdmeans-scan v1", ",".join(header)]
    for r, row, cells in zip(chain.r_grid, values, verdicts):
        lines.append(",".join([f"{r:.6g}", *(f"{v:.12e}" for v in row), *cells]))
    _write_text("\n".join(lines) + "\n", out)
    sys.exit(0 if report.passed else 1)


@main.command()
@click.option("--suite", type=click.Choice(suites.ALL_SUITES), default=None)
@click.option("--all", "run_all", is_flag=True, help="Run every suite.")
@click.option("--trials", type=click.IntRange(min=1), default=25, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option(
    "--realization",
    type=click.Choice(list(REALIZATIONS)),
    default="glc",
    show_default=True,
    help="Space of the orbit suite only; the realization suite always runs slr.",
)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--timings", is_flag=True, help="Print each suite's wall time to stderr.")
def verify(suite, run_all, trials, seed, realization, out, timings):
    """Run verification suites; exit 1 if any property fails."""
    if run_all == (suite is not None):
        _fail_data("choose --suite NAME or --all" + (", not both" if run_all else ""))
    names = suites.ALL_SUITES if run_all else (suite,)
    results = []
    for name in names:
        start = time.perf_counter()
        results.append(
            suites.run_suite(name, seed=seed, trials=trials, realization=realization)
        )
        if timings:
            click.echo(f"time {name}: {time.perf_counter() - start:.3f} s", err=True)
    if out:
        suites.write_report(out, results)
    all_ok = True
    for name, result in zip(names, results):
        status = "pass" if result.passed else "FAIL"
        click.echo(f"{result.name}: {status} ({len(result.rows)} checks)")
        for row in result.failures[:10]:
            t_str = "-" if row.t is None else f"{row.t:.6g}"
            click.echo(
                f"  fail: {row.prop} trial={row.trial} n={row.n} t={t_str} "
                f"margin={row.margin:.3e}"
            )
        if not result.passed:
            again = f"spdmeans verify --suite {name} --seed {seed} --trials {trials}"
            if realization != "glc":
                again += f" --realization {realization}"
            click.echo(f"  reproduce: {again}")
        all_ok &= result.passed
    sys.exit(0 if all_ok else 1)


@main.command("orbit-solve")
@click.option("--kind", type=click.Choice(["exp", "geo", "spec"]), required=True)
@click.option(
    "--input",
    "input_paths",
    nargs=2,
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="Two Hermitian matrix files X Y; omitted means seeded random inputs.",
)
@click.option("--n", type=int, default=3, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--tol", type=float, default=ORBIT_TOL, show_default=True)
@click.option("--max-iter", type=int, default=MAX_ITER, show_default=True)
@click.option(
    "--realization",
    type=click.Choice(list(REALIZATIONS)),
    default="glc",
    show_default=True,
)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--trace-csv", type=click.Path(dir_okay=False), default=None)
def orbit_solve(kind, input_paths, n, seed, tol, max_iter, realization, out, trace_csv):
    """Solve U X U* + V Y V* = Z for the chosen target kind."""
    kind_full = {"exp": "exp_product", "geo": "geometric", "spec": "spectral"}[kind]
    space = REALIZATIONS[realization]
    if input_paths:
        x, y = (space.project(matio.load_hermitian(p)) for p in input_paths)
    else:
        x, y = space.sample(n, seed, 1.0), space.sample(n, seed + 1, 1.0)
    prob = OrbitProblem.create(x, y, kind_full)
    try:
        sol = solve(
            prob, tol=tol, max_iter=max_iter, seed=seed, realization=realization
        )
        converged = True
    except MaxIterReached as exc:
        sol, converged = exc.solution, False
    payload = {
        "kind": kind_full,
        "n": prob.n,
        "realization": realization,
        "converged": converged,
        "residual": sol.residual,
        "iterations": sol.iterations,
        "restarts": sol.restarts,
        "stop_reason": sol.stop_reason,
        "gauss_newton_steps": sol.gauss_newton_steps,
        "u": matio.matrix_to_obj(sol.u.mat),
        "v": matio.matrix_to_obj(sol.v.mat),
        "z": matio.matrix_to_obj(prob.z.mat),
    }
    _write_text(json.dumps(payload, indent=2) + "\n", out)
    if trace_csv:
        with open(trace_csv, "w", newline="") as fh:
            # 17 significant digits: each f reads back to its float64 bits.
            fh.write("# spdmeans-objective-trace v2\niteration,objective\n")
            for k, val in enumerate(sol.objective_trace):
                fh.write(f"{k},{val:.16e}\n")
    sys.exit(0 if converged else 1)


@main.command()
@click.option("--f", "f_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--g", "g_path", type=click.Path(exists=True, dir_okay=False), required=True)
def kostant(f_path, g_path):
    """Compare two invertible matrices in the Kostant pre-order."""
    f = matio.load_matrix(f_path)
    g = matio.load_matrix(g_path)
    report = kostant_report(f, g)
    verdict = "f <=_G g" if report.holds else "NOT f <=_G g"
    click.echo(verdict)
    for k, margin in enumerate(report.partial_margins, start=1):
        click.echo(f"log partial-sum margin k={k}: {margin:.12e}")
    click.echo(f"total log gap: {report.total_gap:.12e} (tol {report.tol:.3e})")
    sys.exit(0)


@main.command("compound")
@click.option("--input", "in_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--k", type=int, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def compound_cmd(in_path, k, out):
    """k-th compound matrix of the input."""
    m = matio.load_matrix(in_path)
    result = compound(m, k)
    _print_matrix(result.mat, digits=6)
    if out:
        matio.save_matrix(out, result.mat)


if __name__ == "__main__":
    main()
