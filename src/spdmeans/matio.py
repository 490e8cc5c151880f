"""Matrix file format shared repo-wide.

JSON object ``{"n": int, "entries": [[[re, im], ...], ...]}`` row-major.
Readers reject non-square and non-finite data.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidMatrixFile
from .linalg import ComplexMatrix, HermitianMatrix, SpdMatrix


def matrix_to_obj(mat: np.ndarray) -> dict:
    """JSON-ready dict for a square complex matrix."""
    n = mat.shape[0]
    return {
        "n": n,
        "entries": [
            [[float(mat[i, j].real), float(mat[i, j].imag)] for j in range(n)]
            for i in range(n)
        ],
    }


def _is_number(value) -> bool:
    # bool is an int subclass, but true/false in a matrix file is an error.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_sequence(value, length: int) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == length


def obj_to_matrix(obj) -> ComplexMatrix:
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise InvalidMatrixFile("matrix object needs 'n' and 'entries' keys")
    n = obj["n"]
    rows = obj["entries"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidMatrixFile(f"matrix dimension must be a positive int, got {n!r}")
    if not (_is_sequence(rows, n) and all(_is_sequence(row, n) for row in rows)):
        raise InvalidMatrixFile("entries are not an n-by-n grid")
    out = np.empty((n, n), dtype=complex)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if not (_is_sequence(cell, 2) and all(map(_is_number, cell))):
                raise InvalidMatrixFile(f"entry ({i},{j}) is not a [re, im] pair")
            try:
                re, im = float(cell[0]), float(cell[1])
            except OverflowError as exc:  # a JSON integer beyond float range
                raise InvalidMatrixFile(f"entry ({i},{j}) is not finite") from exc
            if not (math.isfinite(re) and math.isfinite(im)):
                raise InvalidMatrixFile(f"entry ({i},{j}) is not finite")
            out[i, j] = complex(re, im)
    return ComplexMatrix(out)


def save_matrix(path, mat: np.ndarray) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_obj(np.asarray(mat, dtype=complex)), fh)
        fh.write("\n")


def load_matrix(path) -> ComplexMatrix:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidMatrixFile(f"{path}: not valid JSON ({exc})") from exc
    return obj_to_matrix(obj)


def load_hermitian(path) -> HermitianMatrix:
    return HermitianMatrix(load_matrix(path).mat)


def load_spd(path) -> SpdMatrix:
    return SpdMatrix(load_matrix(path).mat)
