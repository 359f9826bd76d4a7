"""Exact rational nullspace, used to cross-check floating-point rank decisions.

All normal-form constructions have rational entries when k = 1, so
dimensions of constraint kernels can be certified bit-exactly with
Fraction Gaussian elimination.  The floating path stays primary; this is
an optional audit.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _to_fractions(mat: np.ndarray) -> list[list[Fraction]]:
    # every binary float is a rational: Fraction(float(v)) is its exact value
    return [[Fraction(float(v)) for v in row] for row in np.asarray(mat)]


def rational_rank(mat: np.ndarray) -> int:
    """Exact rank over Q of a float matrix, each entry read as the rational it is."""
    rows = _to_fractions(mat)
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    r = 0
    while r < len(rows) and col < ncols:
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        rank += 1
        r += 1
        col += 1
    return rank


def rational_nullspace_dimension(mat: np.ndarray) -> int:
    """dim ker over Q (columns minus exact rank)."""
    mat = np.asarray(mat)
    if mat.size == 0:
        return mat.shape[1] if mat.ndim == 2 else 0
    return mat.shape[1] - rational_rank(mat)
