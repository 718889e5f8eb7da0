"""Exact linear algebra on small dense matrices.

Integer matrices go through fraction-free (Bareiss) elimination so all
intermediate values stay integral; rational matrices are cleared of
denominators row by row first.  Matrices are lists of row lists.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def _eliminate(matrix: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Fraction-free (Bareiss) elimination of a copy of ``matrix``.

    Returns (rank, sign of the row swaps, last pivot).  For a square
    matrix of full rank the signed last pivot is the determinant.
    """
    m = [list(row) for row in matrix]
    rows, cols = len(m), len(m[0]) if m else 0
    rank = 0
    sign = 1
    prev = 1
    for col in range(cols):
        pivot = None
        for i in range(rank, rows):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        for i in range(rank + 1, rows):
            for j in range(col + 1, cols):
                m[i][j] = (m[i][j] * m[rank][col] - m[i][col] * m[rank][j]) // prev
            m[i][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == rows:
            break
    return rank, sign, prev


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    rank, sign, pivot = _eliminate(matrix)
    return sign * pivot if rank == n else 0


def rank_int(matrix: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix, fraction-free elimination."""
    return _eliminate(matrix)[0]


def rank_frac(matrix: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over the rationals: each row is scaled by the lcm of its
    denominators, which keeps the rank, and the integer rows go to
    ``rank_int``."""
    rows = []
    for row in matrix:
        row = [Fraction(x) for x in row]
        scale = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
    return rank_int(rows)
