"""Exact linear feasibility via phase-1 simplex on an integer tableau.

Decides whether {x >= 0 : Z x = 0, O x >= 1} is nonempty for integer
rows Z and O, and produces an exact rational point when it is.  Every
LP-backed criterion poses this system: strict positivity is not
expressible in an LP, and for the homogeneous systems used here "> 0" is
equivalent to ">= 1" up to scaling.  A caller with a free variable writes
it as u - v over two columns.  Bland's rule on both the entering and
leaving choices guarantees termination.

The tableau holds only the structural columns (the variables, then one
-1 surplus column per row of O); the artificials survive only as the
starting basis n + i.  Bland's rule enters one only when no structural
reduced cost is negative: then a positive objective is a Farkas proof of
infeasibility, and a zero one allows only ratio-0 pivots, so the point is
the full tableau's.

Row i is kept in integers, d_i > 0 times the rational tableau's row (its
basic column reads d_i).  A positive scale changes no Bland decision
(reduced-cost signs, ratios rhs_i / a_i, basis-index tie-breaks), so the
pivots and the point are the rational tableau's.  As in Bareiss
elimination, dividing each updated row by its gcd keeps the integers small.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence


def _phase1(rows: list[list[int]], rhs: list[int]) -> list[Fraction] | None:
    """Feasible point of {y >= 0 : rows . y = rhs} for rhs >= 0, or None."""
    m, n = len(rows), len(rows[0]) if rows else 0
    tableau = [[*row, b] for row, b in zip(rows, rhs)]
    # last row: minus each column's sum, the phase-1 reduced costs and objective
    tableau.append([-sum(col) for col in zip(*tableau)])
    basis = [n + i for i in range(m)]
    while True:
        enter = next((j for j in range(n) if tableau[m][j] < 0), -1)
        if enter == -1:
            break
        leave, best_rhs, best_a = -1, 0, 1
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                # rhs_i / a against the best ratio so far, cross-multiplied
                cross = tableau[i][n] * best_a - best_rhs * a
                if leave == -1 or cross < 0 or (cross == 0 and basis[i] < basis[leave]):
                    leave, best_rhs, best_a = i, tableau[i][n], a
        if leave == -1:
            # phase-1 objective is bounded below by 0, so this cannot happen
            raise RuntimeError("unbounded phase-1 problem")
        pivot_row, piv = tableau[leave], tableau[leave][enter]
        for i in range(m + 1):
            f = tableau[i][enter]
            if i != leave and f != 0:
                row = [piv * a - f * b for a, b in zip(tableau[i], pivot_row)]
                g = gcd(*row)
                tableau[i] = [v // g for v in row] if g > 1 else row
        basis[leave] = enter

    if tableau[m][n] != 0:
        return None
    point = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = Fraction(tableau[i][n], tableau[i][b])
    return point


def solve_feasibility(
    num_vars: int,
    zero_rows: Sequence[Sequence[int]] = (),
    one_rows: Sequence[Sequence[int]] = (),
) -> tuple[Fraction, ...] | None:
    """A point of {x >= 0 : Z x = 0, O x >= 1}, Z the zero and O the one
    rows, or None if there is none (the point is () with no variables)."""
    given = [*zero_rows, *one_rows]
    for row in given:
        if len(row) != num_vars:
            raise ValueError("row width does not match variable count")
        if not all(isinstance(c, int) for c in row):
            raise ValueError("coefficients must be integers")
    # columns: the variables, then one -1 surplus column per one row
    n_zero, n_one = len(zero_rows), len(one_rows)
    rows = [[*row, *(-(i == n_zero + k) for k in range(n_one))] for i, row in enumerate(given)]
    point = _phase1(rows, [0] * n_zero + [1] * n_one) if rows else [Fraction(0)] * num_vars
    return None if point is None else tuple(point[:num_vars])


def check_witness(
    witness: Sequence[Fraction],
    zero_rows: Sequence[Sequence[int]] = (),
    one_rows: Sequence[Sequence[int]] = (),
) -> bool:
    """Exact re-evaluation of a witness: x >= 0, Z x = 0 and O x >= 1."""
    if any(x < 0 for x in witness):
        return False
    for rows, holds in ((zero_rows, lambda v: v == 0), (one_rows, lambda v: v >= 1)):
        for row in rows:
            if len(row) != len(witness) or not holds(sum(c * x for c, x in zip(row, witness))):
                return False
    return True
