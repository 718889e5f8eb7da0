"""Exact linear algebra on small dense matrices.

Determinants go through fraction-free (Bareiss) elimination and ranks
through row-scaled elimination with gcd reduction, so all intermediate
values stay integral; rational matrices are cleared of denominators row
by row first.  Matrices are lists of row lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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
    """Rank of an integer matrix by row-scaled elimination.

    At each pivot only the rows with a nonzero entry in the pivot column
    change, each to a*row - b*pivot_row divided by the gcd of its entries,
    so a sparse matrix costs little.  Every row is a multiple of the
    Bareiss row of minors over the same pivots, so the gcd division keeps
    its entries within the input's Hadamard bound.
    """
    rows = [list(row) for row in matrix if any(row)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        for pivot, pivot_row in enumerate(rows):
            if pivot_row[col]:
                break
        else:
            continue
        del rows[pivot]  # the rows above it are 0 in this column
        a = pivot_row[col]
        for i in range(pivot, len(rows)):
            b = rows[i][col]
            if b:
                row = [a * x - b * y for x, y in zip(rows[i], pivot_row)]
                g = gcd(*row)
                rows[i] = [v // g for v in row] if g > 1 else row
        rank += 1
    return rank


def rank_frac(matrix: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over the rationals: each row is scaled by the lcm of its
    denominators, which keeps the rank, and the integer rows go to
    ``rank_int``."""
    rows = []
    for row in matrix:
        row = [Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
    return rank_int(rows)
