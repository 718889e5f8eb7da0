"""Tests for exact integer/rational linear algebra."""

import random
from fractions import Fraction
from itertools import permutations

from crnmss.linalg import det_int, rank_frac, rank_int


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
