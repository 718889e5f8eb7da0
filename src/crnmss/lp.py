"""Exact rational linear feasibility via phase-1 simplex.

Decides whether {x : A x (<=,==,>=) b, x_i >= 0 for non-free i} is
nonempty and produces an exact rational point when it is.  Bland's rule
on both the entering and leaving choices guarantees termination.  Strict
positivity is not expressible in an LP; callers encode it as >= 1, which
is equivalent up to scaling for the homogeneous systems used here.

The tableau holds only the structural columns (variables, free-variable
splits, slacks); the artificials survive only as the starting basis n + i.
Bland's rule enters one only when no structural reduced cost is negative:
then a positive objective is a Farkas proof of infeasibility, and a zero
one allows only ratio-0 pivots, so the point is the full tableau's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Constraint = tuple[Sequence[Fraction | int], str, Fraction | int]

_RELS = ("<=", ">=", "==")


@dataclass(frozen=True)
class LPResult:
    feasible: bool
    witness: tuple[Fraction, ...] | None


def _phase1(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Feasible point of {y >= 0 : rows . y = rhs}, or None."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    tableau = [[-v for v in row] + [-b] if b < 0 else row + [b] for row, b in zip(rows, rhs)]
    # last row: phase-1 reduced costs, minus each column's sum; its rhs
    # entry is minus the sum of the artificial variables
    tableau.append([-sum(col) for col in zip(*tableau)])
    basis = [n + i for i in range(m)]

    while True:
        enter = next((j for j in range(n) if tableau[m][j] < 0), -1)
        if enter == -1:
            break
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            if tableau[i][enter] > 0:
                ratio = tableau[i][n] / tableau[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave == -1:
            # phase-1 objective is bounded below by 0, so this cannot happen
            raise RuntimeError("unbounded phase-1 problem")
        piv = tableau[leave][enter]
        tableau[leave] = [v / piv for v in tableau[leave]]
        for i in range(m + 1):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[leave])]
        basis[leave] = enter

    if tableau[m][n] != 0:
        return None
    point = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = tableau[i][n]
    return point


def solve_feasibility(
    num_vars: int,
    constraints: Iterable[Constraint],
    free_vars: Iterable[int] = (),
) -> LPResult:
    """Feasibility with nonnegative variables except the listed free ones."""
    free = sorted(set(free_vars))
    free_pos = {v: i for i, v in enumerate(free)}
    for v in free:
        if not 0 <= v < num_vars:
            raise ValueError(f"free variable index {v} out of range")
    cons = []
    for coeffs, rel, rhs in constraints:
        coeffs = list(coeffs)
        if len(coeffs) != num_vars:
            raise ValueError("constraint width does not match variable count")
        if rel not in _RELS:
            raise ValueError(f"unknown relation {rel!r}")
        cons.append(([Fraction(c) for c in coeffs], rel, Fraction(rhs)))

    # columns: nonneg vars as-is, each free var split into (plus, minus), slacks
    n_slack = sum(1 for _, rel, _ in cons if rel != "==")
    n_struct = num_vars + len(free)
    rows: list[list[Fraction]] = []
    rhs_col: list[Fraction] = []
    slack_at = 0
    for coeffs, rel, rhs in cons:
        row = [Fraction(0)] * (n_struct + n_slack)
        for v in range(num_vars):
            if coeffs[v] == 0:
                continue
            row[v] = coeffs[v]
            if v in free_pos:
                row[num_vars + free_pos[v]] = -coeffs[v]
        if rel != "==":
            row[n_struct + slack_at] = Fraction(1) if rel == "<=" else Fraction(-1)
            slack_at += 1
        rows.append(row)
        rhs_col.append(rhs)

    point = _phase1(rows, rhs_col) if rows else [Fraction(0)] * (n_struct + n_slack)
    if point is None:
        return LPResult(False, None)
    witness = []
    for v in range(num_vars):
        if v in free_pos:
            witness.append(point[v] - point[num_vars + free_pos[v]])
        else:
            witness.append(point[v])
    return LPResult(True, tuple(witness))


def check_witness(
    witness: Sequence[Fraction],
    constraints: Iterable[Constraint],
    free_vars: Iterable[int] = (),
) -> bool:
    """Exact re-evaluation of a witness against the original constraints."""
    free = set(free_vars)
    for i, x in enumerate(witness):
        if i not in free and x < 0:
            return False
    for coeffs, rel, rhs in constraints:
        if len(coeffs) != len(witness):
            return False
        lhs = sum((Fraction(c) * x for c, x in zip(coeffs, witness)), Fraction(0))
        rhs = Fraction(rhs)
        if rel == "<=" and not lhs <= rhs:
            return False
        if rel == ">=" and not lhs >= rhs:
            return False
        if rel == "==" and lhs != rhs:
            return False
    return True
