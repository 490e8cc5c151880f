"""The chain's range sweep: 2400 seeded scans, summarized as JSON.

Cells: n (2, 4, 8) x scale (2 .. 6) x pair x r (1, 2, 4, 8), in that
nesting order.  Pair k = 0 .. 39 is X = random_hermitian(n, 7000 + k,
scale), Y = random_hermitian(n, 8000 + k, scale), and each is scanned on
the grid (r / 2, r), so r * spread(X or Y) runs up to 8 * 12 = 96, far
past the SPD range of e^{rX} and e^{rY} (log(1e12) = 27.6).

A scan that raises ``DomainError`` is rejected: its input is outside the
accepted range.  An accepted scan fails if ``evaluate_chain`` fails one of
its checks, all of them theorems.  The script prints the totals (scans,
accepted, rejected, failures) and each failed case, and exits 1 if an
accepted scan failed.  It is not a pytest module; run it as

    PYTHONPATH=src python -W error::RuntimeWarning tests/range_sweep.py
"""

from __future__ import annotations

import itertools
import json
import sys

from spdmeans import evaluate_chain, random_hermitian, scan_chain
from spdmeans.errors import DomainError
from spdmeans.gtchain import CHAIN_FAMILIES

SIZES = (2, 4, 8)
SCALES = (2.0, 3.0, 4.0, 5.0, 6.0)
PAIRS = 40
R_VALUES = (1.0, 2.0, 4.0, 8.0)


def run() -> dict:
    totals = {"scans": 0, "accepted": 0, "rejected": 0, "failures": 0}
    failed = []
    for n, scale, k, r in itertools.product(SIZES, SCALES, range(PAIRS), R_VALUES):
        x = random_hermitian(n, 7000 + k, scale)
        y = random_hermitian(n, 8000 + k, scale)
        totals["scans"] += 1
        try:
            report = evaluate_chain(scan_chain(x, y, (r / 2.0, r)))
        except DomainError:
            totals["rejected"] += 1
            continue
        totals["accepted"] += 1
        if not report.passed:
            totals["failures"] += 1
            w = report.worst
            failed.append(f"n={n} scale={scale:g} k={k} r={r:g} "
                          f"{CHAIN_FAMILIES[report.family[w]]} at r = {report.r[w]:g}: "
                          f"margin {report.margin[w]:.3e}, tol {report.tol[w]:.3e}")
    return {**totals, "failed": failed}


if __name__ == "__main__":
    summary = run()
    print(json.dumps(summary, indent=1))
    sys.exit(1 if summary["failures"] else 0)
