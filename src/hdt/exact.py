"""Exact rational linear algebra on small dense matrices.

Root and weight pairings do not come through here: they are integer tables
in `rootsystem`.  This module solves the genuinely rational systems, such
as the fundamental weights in simple-root coordinates, on Python's
arbitrary-precision ``Fraction``; no rounding can occur anywhere in it.
Entries may be ints, Fractions, decimal strings or floats: ``Fraction()``
converts each exactly, a float at its binary value.
Matrices are tiny (at most the rank of a Lie algebra, 8), so plain
Gaussian elimination with the first nonzero pivot is all we need.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class SingularMatrixError(ValueError):
    """A linear solve met a matrix that is singular over the rationals."""


def solve_linear(m: Sequence[Sequence], v: Sequence) -> tuple[Fraction, ...]:
    """Solve m x = v exactly for square invertible m over the rationals.

    Gaussian elimination, pivoting on the first nonzero entry of each
    column (no numerical strategy is needed over Q).
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if len(v) != n:
        raise ValueError("dimension mismatch")
    aug = [[Fraction(x) for x in row] + [Fraction(v[i])] for i, row in enumerate(m)]

    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular over the rationals")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        piv = aug[col][col]
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col] / piv
            if factor == 0:
                continue
            for c in range(col, n + 1):
                aug[r][c] -= factor * aug[col][c]

    return tuple(aug[r][n] / aug[r][r] for r in range(n))

