"""Write the 60-digit fixtures of the orbit targets and of the two means.

tests/data/orbit_target_reference.json: for each input pair of a fixed
sweep, X and Y as float64 entries and the three targets of
``orbit.build_target``

    exp_product  Z = log(e^{X/2} e^Y e^{X/2})
    geometric    Z = log(e^{2X} # e^{2Y})
    spectral     Z = log(e^{2X} @ e^{2Y})

computed from those entries in mpmath at 60 significant digits and rounded
to float64.  Every matrix function is Q f(Lambda) Q* from ``mpmath.eighe``
(``mpmath.logm`` and ``sqrtm`` do not converge at the larger scales).

Sweep: realizations glc and slr; n 3..6; scales 1, 3 and 6; three input
families, each projected into the space, seed s = 700000 + 100 * cell:

    standard        X = sample(n, s, scale), Y = sample(n, s + 1, scale)
    shared_spectrum Y = Q diag(lambda(X)) Q*, Q = random_factor(n, s + 2)
    near_minus_x    Y = -X + 1e-2 sample(n, s + 1)

tests/data/mean_reference.json: for each pair A, B of ``random_spd``
draws, A and B as float64 entries and, computed from those entries,

    sharp    A #_t B = A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}
    natural  A @_t B = C^t A C^t,  C = A^{-1/2} (A^{1/2} B A^{1/2})^{1/2} A^{-1/2}

at t = 0.3 and 0.5.  Sweep: n 3..6 and spreads 2, 6, 9, 12, 13.5, with
A = random_spd(n, s, spread), B = random_spd(n, s + 1, spread),
s = 800000 + 10 * cell; then the pair random_spd(4, 3002, 14),
random_spd(4, 3003, 14) at the edge of the SpdMatrix range.

mpmath (1.3.0 wrote the committed files) is not a dependency of the
package; only this script needs it, and the tests read the fixtures alone.
Run it as

    PYTHONPATH=src python tests/make_target_reference.py
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import mpmath
import numpy as np

from orbit_stress_set import inputs as stress_inputs
from spdmeans import HermitianMatrix, random_spd
from spdmeans.orbit import TARGET_KINDS
from spdmeans.realizations import REALIZATIONS

DPS = 60
FAMILIES = ("standard", "shared_spectrum", "near_minus_x")
SIZES = (3, 4, 5, 6)
SCALES = (1.0, 3.0, 6.0)
OUT = Path(__file__).parent / "data" / "orbit_target_reference.json"
MEAN_SIZES = (3, 4, 5, 6)
MEAN_SPREADS = (2.0, 6.0, 9.0, 12.0, 13.5)
MEAN_EDGE = (4, (3002, 3003), 14.0)
MEAN_TS = (0.3, 0.5)
MEAN_OUT = Path(__file__).parent / "data" / "mean_reference.json"


def inputs(realization: str, n: int, family: str, scale: float, s: int):
    """X and Y of one reference case; the first two families are the stress
    set's."""
    if family != "near_minus_x":
        return stress_inputs(realization, n, family, scale, s)
    space = REALIZATIONS[realization]
    x = space.sample(n, s, scale)
    y = -x.mat + 1e-2 * space.sample(n, s + 1, 1.0).mat
    return x, space.project(HermitianMatrix(y))


def _mp(arr: np.ndarray) -> mpmath.matrix:
    return mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in arr])


def _herm(m: mpmath.matrix) -> mpmath.matrix:
    return (m + m.H) / 2


def _fun(m: mpmath.matrix, fn) -> mpmath.matrix:
    """fn(M) = Q diag(fn(lambda)) Q* for Hermitian M."""
    lam, q = mpmath.eighe(_herm(m))
    return q * mpmath.diag([fn(v) for v in lam]) * q.H


def targets(x: np.ndarray, y: np.ndarray) -> dict:
    """The three targets of X and Y in mpmath."""
    mx, my = _mp(x), _mp(y)
    half_x = _fun(mx, lambda v: mpmath.exp(v / 2))
    ex, ey = half_x * half_x, _fun(my, mpmath.exp)
    ex_inv = _fun(mx, lambda v: mpmath.exp(-v))
    b = ey * ey
    sharp = ex * _fun(ex_inv * b * ex_inv, mpmath.sqrt) * ex
    c = ex_inv * _fun(ex * b * ex, mpmath.sqrt) * ex_inv
    c_half = _fun(c, mpmath.sqrt)
    natural = c_half * ex * ex * c_half
    means = {
        "exp_product": half_x * ey * half_x,
        "geometric": sharp,
        "spectral": natural,
    }
    return {kind: _fun(means[kind], mpmath.log) for kind in TARGET_KINDS}


def means(a: np.ndarray, b: np.ndarray) -> dict:
    """A #_t B and A @_t B at every t of MEAN_TS, in mpmath."""
    ma, mb = _mp(a), _mp(b)
    ra, ria = _fun(ma, mpmath.sqrt), _fun(ma, lambda v: 1 / mpmath.sqrt(v))
    mid = ria * mb * ria
    c = ria * _fun(ra * mb * ra, mpmath.sqrt) * ria
    out = {"sharp": {}, "natural": {}}
    for t in MEAN_TS:
        c_t = _fun(c, lambda v: v ** t)
        out["sharp"][str(t)] = ra * _fun(mid, lambda v: v ** t) * ra
        out["natural"][str(t)] = c_t * ma * c_t
    return out


def _store(arr: np.ndarray, real: bool) -> dict:
    out = {"re": arr.real.tolist()}
    if not real:
        out["im"] = arr.imag.tolist()
    return out


def _write(path: Path, cases: list) -> None:
    meta = {"mpmath": mpmath.__version__, "dps": DPS,
            "generator": "tests/make_target_reference.py"}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({**meta, "cases": cases}) + "\n")


def mean_cases() -> list:
    """The mean fixture's cases, in sweep order."""
    draws = [
        (n, (800000 + 10 * cell, 800001 + 10 * cell), spread)
        for cell, (n, spread) in enumerate(itertools.product(MEAN_SIZES, MEAN_SPREADS))
    ]
    cases = []
    for n, seeds, spread in draws + [MEAN_EDGE]:
        a, b = (random_spd(n, seed, spread).mat for seed in seeds)
        ref = means(a, b)
        cases.append({
            "n": n, "spread": spread, "seeds": list(seeds),
            "a": _store(a, False), "b": _store(b, False),
            "means": {
                kind: {t: _store(np.array(m.tolist(), dtype=complex), False)
                       for t, m in by_t.items()}
                for kind, by_t in ref.items()
            },
        })
        print("mean", n, seeds, spread, flush=True)
    return cases


def main() -> None:
    mpmath.mp.dps = DPS
    _write(MEAN_OUT, mean_cases())
    cases = []
    grid = itertools.product(REALIZATIONS, SIZES, FAMILIES, SCALES)
    for cell, (realization, n, family, scale) in enumerate(grid):
        s = 700000 + 100 * cell
        x, y = inputs(realization, n, family, scale, s)
        real = realization == "slr"
        ref = targets(x.mat, y.mat)
        cases.append({
            "realization": realization, "n": n, "family": family,
            "scale": scale, "seed": s,
            "x": _store(x.mat, real), "y": _store(y.mat, real),
            "z": {
                kind: _store(np.array(m.tolist(), dtype=complex), real)
                for kind, m in ref.items()
            },
        })
        print(cell, realization, n, family, scale, flush=True)
    _write(OUT, cases)


if __name__ == "__main__":
    main()
