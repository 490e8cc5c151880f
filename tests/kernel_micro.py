"""Kernel microbenchmarks at n in {2, 4, 8, 16, 32}, with one BLAS thread.

Times, per call:

- the seeded draws ``random_spd`` and ``random_hermitian``;
- the constructors ``HermitianMatrix(arr)`` and ``SpdMatrix(arr)``, which
  run the matrix's one ``eigh``, and ``eig_hermitian(HermitianMatrix(arr))``,
  the constructor plus the read of its record;
- the eigen-record assembly ``HermitianMatrix._from_eig`` (one matrix) and
  ``SpdMatrix._from_eigs`` (a stack of m = 20);
- ``mat_pow`` of an ``SpdMatrix`` at t = 0.3;
- ``spectrum``, ``polar`` and the second ``compound`` of a general complex
  matrix;
- ``_MeanPair(a, b).sharps`` and ``.naturals`` over the 11 t of 0, 0.1,
  ..., 1 (the pair's SVDs included);
- ``log_majorization_margins`` of two (20, n) stacks;
- ``scan_chain`` on the default r grid;
- the orbit solver's kernels on a stacked factor pair W = [U; V]: one
  iterate's conjugates and residual ``orbit._conjugates``, the Gauss-Newton
  direction ``orbit._gauss_newton_direction`` and the Cayley retraction
  ``orbit._cayley(S, -1/2) @ W`` of that direction;
- one exp_product ``solve`` from U = V = I;
- the LAPACK kernels ``eigh_stack`` and ``svd`` of one matrix, as controls.

Each kernel's samples alternate with those of a fixed numpy reference
kernel at the same n (the product of two fixed complex Gaussian matrices),
so a slower or busier host shows in both and the ratio kernel / reference
stays comparable across runs.  A sample times a batch of calls that lasts
about 2 ms (one call, if a call lasts longer).  The script prints one JSON
object: for each kernel and n the median and interquartile range of the
per-call time in microseconds, the reference's, and the ratio of the two
medians.  It is a measurement, not a test: it exits 0 whatever the timings
are, and runs in under a minute (about 32 s on a 2-core x86-64 host, a
third of it the n = 32 solve at about 0.3 s a call).

Run: PYTHONPATH=src python tests/kernel_micro.py
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from spdmeans.gtchain import scan_chain  # noqa: E402
from spdmeans.linalg import (  # noqa: E402
    ComplexMatrix,
    HermitianMatrix,
    SpdMatrix,
    eig_hermitian,
    eigh_stack,
    mat_pow,
    polar,
    spectrum,
    svd,
)
from spdmeans.majorization import compound, log_majorization_margins  # noqa: E402
from spdmeans.means import _MeanPair  # noqa: E402
from spdmeans.orbit import (  # noqa: E402
    OrbitProblem,
    _cayley,
    _conjugates,
    _gauss_newton_direction,
    solve,
)
from spdmeans.sampling import random_hermitian, random_spd  # noqa: E402

SIZES = (2, 4, 8, 16, 32)
STACK = 20
T_GRID = np.linspace(0.0, 1.0, 11)
SAMPLES = 31
SAMPLE_S = 2e-3


def _unitaries(rng, shape) -> np.ndarray:
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.linalg.qr(g)[0]


def kernels(n: int) -> dict:
    """The timed kernels at n, each a call of no arguments on fixed inputs."""
    rng = np.random.default_rng(n)
    q, qs = _unitaries(rng, (n, n)), _unitaries(rng, (STACK, n, n))
    vals, stack_vals = rng.uniform(-2.0, 2.0, n), np.exp(rng.uniform(-2.0, 2.0, (STACK, n)))
    herm = HermitianMatrix._from_eig(q, vals).mat.copy()
    a, b = random_spd(n, 11), random_spd(n, 12)
    spd = a.mat.copy()
    gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    general = ComplexMatrix(gauss)
    x, y = random_hermitian(n, 13, 0.5), random_hermitian(n, 14, 0.5)
    lx, ly = np.exp(rng.uniform(-2.0, 2.0, (2, STACK, n)))
    resid = herm - np.eye(n) * (np.trace(herm) / n)
    w, xy = _unitaries(rng, (2, n, n)), np.array([x.mat, y.mat])
    step = _gauss_newton_direction(xy, resid)
    prob = OrbitProblem.create(x, y, "exp_product")
    return {
        "random_spd": lambda: random_spd(n, 7),
        "random_hermitian": lambda: random_hermitian(n, 7),
        "HermitianMatrix": lambda: HermitianMatrix(herm),
        "SpdMatrix": lambda: SpdMatrix(spd),
        "eig_hermitian(HermitianMatrix)": lambda: eig_hermitian(HermitianMatrix(herm)),
        "HermitianMatrix._from_eig": lambda: HermitianMatrix._from_eig(q, vals),
        f"SpdMatrix._from_eigs(m={STACK})": lambda: SpdMatrix._from_eigs(qs, stack_vals),
        "mat_pow": lambda: mat_pow(a, 0.3),
        "spectrum": lambda: spectrum(general),
        "polar": lambda: polar(general),
        "compound(k=2)": lambda: compound(general, 2),
        "_MeanPair.sharps(11 t)": lambda: _MeanPair(a, b).sharps(T_GRID),
        "_MeanPair.naturals(11 t)": lambda: _MeanPair(a, b).naturals(T_GRID),
        f"log_majorization_margins(m={STACK})": lambda: log_majorization_margins(lx, ly),
        "scan_chain": lambda: scan_chain(x, y),
        "_conjugates": lambda: _conjugates(w, xy, herm),
        "_gauss_newton_direction": lambda: _gauss_newton_direction(xy, resid),
        "_cayley(S, -1/2) @ W": lambda: _cayley(step, -0.5) @ w,
        "solve": lambda: solve(prob, seed=1),
        "eigh_stack": lambda: eigh_stack(herm),
        "svd": lambda: svd(gauss),
    }


def reference(n: int):
    """The fixed numpy reference kernel at n."""
    rng = np.random.default_rng(1000 + n)
    a, b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
    return lambda: a @ b


def _batch_size(fn) -> int:
    """Calls per sample, so one sample lasts about SAMPLE_S."""
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - start >= SAMPLE_S / 4 or calls >= 1 << 16:
            elapsed = time.perf_counter() - start
            return max(1, int(calls * SAMPLE_S / max(elapsed, 1e-9)))
        calls *= 4


def _sample_us(fn, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls * 1e6


def _summary(samples) -> dict:
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"median_us": round(float(median), 3), "iqr_us": [round(float(q1), 3), round(float(q3), 3)]}


def measure(fn, ref) -> dict:
    """Median and IQR of fn's and ref's per-call time, sampled alternately."""
    fn(), ref()
    calls, ref_calls = _batch_size(fn), _batch_size(ref)
    times, ref_times = [], []
    for _ in range(SAMPLES):
        times.append(_sample_us(fn, calls))
        ref_times.append(_sample_us(ref, ref_calls))
    kernel, base = _summary(times), _summary(ref_times)
    return {**kernel, "ref_median_us": base["median_us"], "ref_iqr_us": base["iqr_us"],
            "ratio": round(kernel["median_us"] / base["median_us"], 3)}


def main() -> None:
    start = time.perf_counter()
    results: dict = {}
    for n in SIZES:
        ref = reference(n)
        for name, fn in kernels(n).items():
            results.setdefault(name, {})[str(n)] = measure(fn, ref)
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
        "reference": "a @ b, two fixed complex Gaussian n x n arrays",
        "samples": SAMPLES,
        "kernels": results,
        "wall_s": round(time.perf_counter() - start, 1),
    }, indent=1))


if __name__ == "__main__":
    main()
