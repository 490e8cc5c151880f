"""Write tests/data/orbit_target_reference.json: orbit targets to 60 digits.

For each input pair of a fixed sweep the fixture holds X and Y as float64
entries and the three targets of ``orbit.build_target``

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

mpmath (1.3.0 wrote the committed file) is not a dependency of the
package; only this script needs it, and the tests read the fixture alone.
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
from spdmeans import HermitianMatrix
from spdmeans.orbit import TARGET_KINDS
from spdmeans.realizations import REALIZATIONS

DPS = 60
FAMILIES = ("standard", "shared_spectrum", "near_minus_x")
SIZES = (3, 4, 5, 6)
SCALES = (1.0, 3.0, 6.0)
OUT = Path(__file__).parent / "data" / "orbit_target_reference.json"


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


def _store(arr: np.ndarray, real: bool) -> dict:
    out = {"re": arr.real.tolist()}
    if not real:
        out["im"] = arr.imag.tolist()
    return out


def main() -> None:
    mpmath.mp.dps = DPS
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
    meta = {"mpmath": mpmath.__version__, "dps": DPS,
            "generator": "tests/make_target_reference.py"}
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps({**meta, "cases": cases}) + "\n")


if __name__ == "__main__":
    main()
