"""Tests for the exact rational feasibility solver."""

import copy
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crnmss import lp
from crnmss.decide import positive_dependence
from crnmss.lp import check_witness, solve_feasibility
from crnmss.network import parse_network
from crnmss.structure import stoich


def test_simple_feasible_system():
    # x - y = 0, x + y >= 1, x, y >= 0
    point = solve_feasibility(2, [[1, -1]], [[1, 1]])
    assert point is not None
    x, y = point
    assert x == y and x + y >= 1 and x >= 0 and y >= 0
    assert isinstance(x, Fraction)


def test_simple_infeasible_system():
    # x - y >= 1 and y - x >= 1 cannot hold together
    assert solve_feasibility(2, one_rows=[[1, -1], [-1, 1]]) is None


def test_nonnegativity_is_enforced():
    assert solve_feasibility(1, one_rows=[[-1]]) is None
    assert solve_feasibility(1, one_rows=[[1]]) == (1,)
    # no rows: the origin; with no variables too, so callers test "is None"
    assert solve_feasibility(2) == (0, 0)
    assert solve_feasibility(0) == ()


def test_exact_rational_arithmetic():
    # 3x >= 1 holds first at x = 1/3 exactly
    assert solve_feasibility(1, one_rows=[[3]]) == (Fraction(1, 3),)


def test_rejects_bad_input():
    with pytest.raises(ValueError, match="width"):
        solve_feasibility(2, [[1]])
    with pytest.raises(ValueError, match="width"):
        solve_feasibility(1, one_rows=[[1, 1]])
    with pytest.raises(ValueError, match="integers"):
        solve_feasibility(1, one_rows=[[Fraction(1, 2)]])
    with pytest.raises(ValueError, match="integers"):
        solve_feasibility(1, [[1.0]])


def test_check_witness():
    zero_rows, one_rows = [[1, -1]], [[1, 1]]
    assert check_witness([Fraction(1, 2), Fraction(1, 2)], zero_rows, one_rows)
    assert not check_witness([Fraction(1, 4), Fraction(1, 4)], zero_rows, one_rows)
    assert not check_witness([Fraction(1), Fraction(0)], zero_rows, one_rows)
    assert not check_witness([Fraction(-1), Fraction(-1)], [[1, -1]])


def test_check_witness_rejects_a_witness_of_the_wrong_length():
    # zip would drop the -5 column and accept 1 >= 1
    assert not check_witness((1,), one_rows=[[1, -5]])
    assert not check_witness((1, 0, 0), one_rows=[[1, -5]])
    assert check_witness((1, 0), one_rows=[[1, -5]])
    assert not check_witness((0,), zero_rows=[[1, -5]])


def test_witnesses_always_verify_on_random_systems():
    rng = random.Random(41)
    feasible_seen = 0
    for _ in range(150):
        nv = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(nv)] for _ in range(rng.randint(1, 4))]
        cut = rng.randint(0, len(rows))
        zero_rows, one_rows = rows[:cut], rows[cut:]
        point = solve_feasibility(nv, zero_rows, one_rows)
        if point is not None:
            feasible_seen += 1
            assert check_witness(point, zero_rows, one_rows)
    assert feasible_seen > 40


def test_inconsistent_equalities():
    # x + y = 0 forces the origin, which misses x + y >= 1
    assert solve_feasibility(2, [[1, 1]], [[1, 1]]) is None
    # x = z, y = z collapses to a feasible diagonal
    point = solve_feasibility(3, [[1, 0, -1], [0, 1, -1]], [[1, 1, 0]])
    assert point is not None
    x, y, z = point
    assert x == z and y == z and x + y >= 1


def fraction_tableau_phase1(rows, rhs):
    """Phase 1 on a ``Fraction`` tableau, each row normalized by its pivot.

    The solver's integer tableau keeps every row at a positive multiple of
    this one's, so both must take the same pivots to the same point.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    tableau = [row + [b] for row, b in zip(rows, rhs)]
    tableau.append([-sum(col) for col in zip(*tableau)])
    basis = [n + i for i in range(m)]

    while True:
        enter = next((j for j in range(n) if tableau[m][j] < 0), -1)
        if enter == -1:
            break
        leave = -1
        best = None
        for i in range(m):
            if tableau[i][enter] > 0:
                ratio = tableau[i][n] / tableau[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
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


def on_fractions(reference):
    """``reference`` as a stand-in for ``lp._phase1``: the solver hands its
    phase 1 integer rows, which a ``Fraction`` tableau must convert first."""

    def phase1(rows, rhs):
        return reference([[Fraction(c) for c in row] for row in rows], [Fraction(b) for b in rhs])

    return phase1


def full_tableau_phase1(rows, rhs, reentries):
    """Phase 1 with one artificial column per row kept in the tableau.

    This is the textbook form the solver's tableau was reduced from; it
    adds 1 to ``reentries[0]`` whenever Bland's rule enters an artificial.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
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
    """Zero rows, one rows and a sign pattern on the variables."""
    nv = draw(st.integers(1, 5))
    coeffs = st.lists(st.integers(-3, 3), min_size=nv, max_size=nv)
    zero_rows = draw(st.lists(coeffs, max_size=3))
    one_rows = draw(st.lists(coeffs, max_size=3))
    pattern = draw(st.lists(st.sampled_from([1, 1, 0, None]), min_size=nv, max_size=nv))
    for j, want in enumerate(pattern):
        if want is not None:
            (one_rows if want else zero_rows).append([int(i == j) for i in range(nv)])
    return nv, zero_rows, one_rows


# the leaving tie-break on basis indices decides this witness
TIE_BREAK_SYSTEM = (6, [[0, 2, -2, 2, 1, 0], [2, 2, -2, -2, -2, -2]], [
    [-3, 2, 2, -2, 1, 3], [1, 0, 0, 0, 0, -1], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
])
# coefficients near the parser's bound of 10^9, with several pivots
LARGE_SYSTEM = (4, [[10**9, -999_999_937, 3, -(10**9 - 7)]], [
    [999_999_929, 2, -10**9, 5], [-7, 10**9 - 1, 999_999_893, -2],
    [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
])


def test_integer_tableau_matches_the_fraction_tableau():
    reference = on_fractions(fraction_tableau_phase1)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(lp_systems())
    @example(TIE_BREAK_SYSTEM)
    @example(LARGE_SYSTEM)
    def check(system):
        got = solve_feasibility(*system)
        with mock.patch.object(lp, "_phase1", reference):
            want = solve_feasibility(*system)
        assert got == want

    check()


def test_integer_tableau_stays_within_the_hadamard_bound():
    """An updated row divided by its gcd is a vector of minors of the input
    [rows | I | rhs] over a common factor, so every integer the point is
    read from is at most that matrix's Hadamard bound.  Without the gcd
    division the row scales multiply up pivot after pivot."""
    phase1, inputs, reads = lp._phase1, [], []

    def recording_phase1(rows, rhs):
        inputs.append((rows, rhs))
        return phase1(rows, rhs)

    def recording_fraction(*args):
        reads.append(args)
        return Fraction(*args)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(lp_systems())
    @example(LARGE_SYSTEM)
    def check(system):
        inputs.clear()
        reads.clear()
        with mock.patch.object(lp, "_phase1", recording_phase1), \
                mock.patch.object(lp, "Fraction", recording_fraction):
            solve_feasibility(*system)
        for rows, rhs in inputs:  # none without rows
            bound_sq = math.prod(sum(c * c for c in row) + b * b + 1 for row, b in zip(rows, rhs))
            assert all(v * v <= bound_sq for args in reads for v in args)

    check()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(lp_systems())
@example(LARGE_SYSTEM)
def test_solver_leaves_its_rows_alone_and_returns_reduced_fractions(system):
    nv, zero_rows, one_rows = system
    before = copy.deepcopy((zero_rows, one_rows))
    point = solve_feasibility(nv, zero_rows, one_rows)
    assert (zero_rows, one_rows) == before
    if point is not None:
        assert all(type(x) is Fraction for x in point)
        assert all(x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1
                   for x in point)
        assert check_witness(point, zero_rows, one_rows)


def test_solver_takes_the_cached_stoichiometric_rows_as_they_are():
    # positive_dependence hands the network's cached Gamma, a tuple of tuples
    net = parse_network("A -> B\nB -> C\nC -> A\n2 A -> A + B")
    gamma = stoich(net).stoich_matrix
    before = copy.deepcopy(gamma)
    first, second = positive_dependence(net), positive_dependence(net)
    assert first is not None and first == second
    assert stoich(net).stoich_matrix is gamma and gamma == before
    assert all(type(x) is Fraction for x in first)
    assert check_witness(first, gamma, [[int(i == j) for i in range(4)] for j in range(4)])


def test_structural_tableau_matches_the_full_tableau():
    reentries = [0]

    def reference(rows, rhs):
        return full_tableau_phase1(rows, rhs, reentries)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(lp_systems())
    @example(TIE_BREAK_SYSTEM)
    def check(system):
        got = solve_feasibility(*system)
        with mock.patch.object(lp, "_phase1", on_fractions(reference)):
            want = solve_feasibility(*system)
        assert got == want

    check()
    # the full tableau must really have entered an artificial column, or the
    # columns the solver drops were never exercised
    assert reentries[0] > 0
