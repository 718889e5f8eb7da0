"""Tests for exact integer/rational linear algebra."""

import math
import random
from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from crnmss.linalg import _eliminate, det_int, rank_frac, rank_int


def det_by_permutation_expansion(matrix):
    """Independent oracle: Leibniz formula, exact on small matrices."""
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            while seen[i] != i:
                j = seen[i]
                seen[i], seen[j] = seen[j], seen[i]
                sign = -sign
        prod = 1
        for i in range(n):
            prod *= matrix[i][perm[i]]
        total += sign * prod
    return total


def test_det_small_cases():
    assert det_int([]) == 1
    assert det_int([[7]]) == 7
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert det_int([[1, 2], [2, 4]]) == 0


def test_det_matches_permutation_expansion():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert det_int(m) == det_by_permutation_expansion(m)


def test_rank_int():
    assert rank_int([]) == 0
    assert rank_int([[0, 0], [0, 0]]) == 0
    assert rank_int([[1, 2], [2, 4]]) == 1
    assert rank_int([[1, 2], [3, 4]]) == 2
    assert rank_int([[1, 0, 1], [0, 1, 1]]) == 2
    # rank is bounded by both dimensions
    assert rank_int([[1], [2], [3]]) == 1


def test_rank_int_matches_nonzero_det_minors():
    rng = random.Random(6)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        r = rank_int(m)
        # some r x r minor must be nonzero, all (r+1) x (r+1) minors zero
        from itertools import combinations

        def minors(k):
            for ri in combinations(range(rows), k):
                for ci in combinations(range(cols), k):
                    yield det_int([[m[i][j] for j in ci] for i in ri])

        if r > 0:
            assert any(d != 0 for d in minors(r))
        if r < min(rows, cols):
            assert all(d == 0 for d in minors(r + 1))


def test_rank_frac_agrees_with_rank_int():
    rng = random.Random(7)
    for _ in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        scaled = [[Fraction(v, 3) for v in row] for row in m]
        assert rank_frac(scaled) == rank_int(m)


@st.composite
def integer_matrices(draw):
    """Up to 7 x 7, mostly zero entries, some whole rows and columns zero."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entries = st.just(0) | st.integers(-9, 9)
    m = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    zero_rows = draw(st.sets(st.integers(0, 6), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 6), max_size=2))
    return [[0 if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)]
            for i, row in enumerate(m)]


def test_rank_rows_stay_within_the_hadamard_bound():
    """Every factor of a product in ``rank_int`` is an entry of a row the
    elimination keeps.  A kept row divided by the gcd of its entries is a
    multiple of a Bareiss row of minors over the same pivots, so it is no
    larger than the input's Hadamard bound.  Without the gcd division the
    rows multiply up pivot after pivot."""
    factors: list[int] = []

    class Factor(int):
        """An int whose arithmetic keeps the type and whose products
        record the size of both factors."""

        def __mul__(self, other):
            factors.extend((abs(self), abs(other)))
            return Factor(int(self) * int(other))

        def __sub__(self, other):
            return Factor(int(self) - int(other))

        def __floordiv__(self, other):
            return Factor(int(self) // int(other))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(integer_matrices())
    def check(m):
        factors.clear()
        assert rank_int([[Factor(v) for v in row] for row in m]) == _eliminate(m)[0]
        bound_sq = math.prod(sum(v * v for v in row) or 1 for row in m)
        assert all(v * v <= bound_sq for v in factors)

    check()
