"""Tests for the exact rational feasibility solver."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crnmss import lp
from crnmss.lp import check_witness, solve_feasibility


def test_simple_feasible_system():
    # x + y = 2, x - y <= 0, x, y >= 0
    res = solve_feasibility(2, [([1, 1], "==", 2), ([1, -1], "<=", 0)])
    assert res.feasible
    x, y = res.witness
    assert x + y == 2 and x - y <= 0 and x >= 0 and y >= 0
    assert isinstance(x, Fraction)


def test_simple_infeasible_system():
    # x >= 1 and x <= 0 cannot hold together
    res = solve_feasibility(1, [([1], ">=", 1), ([1], "<=", 0)])
    assert not res.feasible
    assert res.witness is None


def test_nonnegativity_is_enforced():
    res = solve_feasibility(1, [([1], "<=", -1)])
    assert not res.feasible
    res = solve_feasibility(1, [([1], "<=", -1)], free_vars=[0])
    assert res.feasible
    assert res.witness[0] <= -1


def test_free_variables():
    # x - y = -5 with x, y free
    res = solve_feasibility(2, [([1, -1], "==", -5)], free_vars=[0, 1])
    assert res.feasible
    x, y = res.witness
    assert x - y == -5


def test_exact_rational_arithmetic():
    # 3x = 1 forces x = 1/3 exactly
    res = solve_feasibility(1, [([3], "==", 1)])
    assert res.feasible
    assert res.witness[0] == Fraction(1, 3)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_feasibility(2, [([1], "==", 1)])
    with pytest.raises(ValueError):
        solve_feasibility(1, [([1], "=<", 1)])
    with pytest.raises(ValueError):
        solve_feasibility(1, [([1], "==", 1)], free_vars=[2])


def test_check_witness():
    cons = [([1, 1], "==", 2), ([1, -1], "<=", 0)]
    assert check_witness([Fraction(1), Fraction(1)], cons)
    assert not check_witness([Fraction(2), Fraction(0)], cons)
    assert not check_witness([Fraction(-1), Fraction(3)], cons)
    assert check_witness([Fraction(-1), Fraction(3)], cons, free_vars=[0])


def test_check_witness_rejects_a_witness_of_the_wrong_length():
    # zip would drop the -5 column and accept 1 >= 1
    assert not check_witness((1,), [([1, -5], ">=", 1)])
    assert not check_witness((1, 0, 0), [([1, -5], ">=", 1)])
    assert check_witness((1, 0), [([1, -5], ">=", 1)])


def test_witnesses_always_verify_on_random_systems():
    rng = random.Random(41)
    feasible_seen = 0
    for _ in range(150):
        nv = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        cons = []
        for _ in range(nc):
            coeffs = [rng.randint(-3, 3) for _ in range(nv)]
            rel = rng.choice(["<=", ">=", "=="])
            cons.append((coeffs, rel, rng.randint(-4, 4)))
        free = [v for v in range(nv) if rng.random() < 0.3]
        res = solve_feasibility(nv, cons, free_vars=free)
        if res.feasible:
            feasible_seen += 1
            assert check_witness(res.witness, cons, free_vars=free)
    assert feasible_seen > 40


def test_inconsistent_equalities():
    res = solve_feasibility(2, [([1, 1], "==", 1), ([1, 1], "==", 2)])
    assert not res.feasible
    # x = z, y = z with z free collapses to a feasible diagonal
    res = solve_feasibility(
        3,
        [([1, 0, -1], "==", 0), ([0, 1, -1], "==", 0), ([1, 1, 0], ">=", 1)],
        free_vars=[2],
    )
    assert res.feasible
    x, y, z = res.witness
    assert x == z and y == z and x + y >= 1


def full_tableau_phase1(rows, rhs, reentries):
    """Phase 1 with one artificial column per row kept in the tableau.

    This is the textbook form the solver's tableau was reduced from; it
    adds 1 to ``reentries[0]`` whenever Bland's rule enters an artificial.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    width = n + m
    tableau = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs[i]]
               for i in range(m)]
    basis = [n + i for i in range(m)]
    zrow = [Fraction(0)] * (width + 1)
    for j in range(width + 1):
        col_sum = sum(tableau[i][j] for i in range(m))
        cost = Fraction(1) if j >= n and j < width else Fraction(0)
        zrow[j] = cost - col_sum
    while True:
        enter = -1
        for j in range(width):
            if zrow[j] < 0:
                enter = j
                break
        if enter == -1:
            break
        reentries[0] += enter >= n
        leave = -1
        best = None
        for i in range(m):
            if tableau[i][enter] > 0:
                ratio = tableau[i][width] / tableau[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        piv = tableau[leave][enter]
        tableau[leave] = [v / piv for v in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[leave])]
        if zrow[enter] != 0:
            f = zrow[enter]
            zrow = [a - f * b for a, b in zip(zrow, tableau[leave])]
        basis[leave] = enter
    if -zrow[width] != 0:
        return None
    point = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = tableau[i][width]
    return point


@st.composite
def lp_systems(draw):
    """General rows, homogeneous rows and a sign pattern on the variables."""
    nv = draw(st.integers(1, 5))
    coeffs = st.lists(st.integers(-3, 3), min_size=nv, max_size=nv)
    cons = draw(st.lists(
        st.tuples(coeffs, st.sampled_from(["<=", ">=", "=="]), st.integers(-4, 4)), max_size=3
    ))
    cons += [(row, "==", 0) for row in draw(st.lists(coeffs, max_size=3))]
    pattern = draw(st.lists(st.sampled_from([1, 1, -1, 0, None]), min_size=nv, max_size=nv))
    bound = {1: (">=", 1), -1: ("<=", -1), 0: ("==", 0)}
    for j, want in enumerate(pattern):
        if want is not None:
            cons.append(([int(i == j) for i in range(nv)], *bound[want]))
    free = draw(st.lists(st.integers(0, nv - 1), unique=True, max_size=nv))
    return nv, cons, free


def test_structural_tableau_matches_the_full_tableau():
    reentries = [0]

    def reference(rows, rhs):
        return full_tableau_phase1(rows, rhs, reentries)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(lp_systems())
    # the leaving tie-break on basis indices decides this witness
    @example((5, [
        ([3, -2, -2, 2, -1], "<=", -1), ([0, 2, -2, 2, 1], "==", 0), ([2, 2, -2, -2, -2], "==", 0),
        ([1, 0, 0, 0, 0], ">=", 1), ([0, 1, 0, 0, 0], ">=", 1), ([0, 0, 1, 0, 0], ">=", 1),
    ], [0]))
    def check(system):
        nv, cons, free = system
        got = solve_feasibility(nv, cons, free_vars=free)
        with mock.patch.object(lp, "_phase1", reference):
            want = solve_feasibility(nv, cons, free_vars=free)
        assert got == want

    check()
    # the full tableau must really have entered an artificial column, or the
    # columns the solver drops were never exercised
    assert reentries[0] > 0
