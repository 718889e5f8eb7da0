"""Tests for exact univariate polynomials and Sturm root counting."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipoly import (
    family_polynomial,
    multistable_rates,
    positive_root_count,
    primitive,
    stable_positive_root_count,
    sturm_sequence,
    two_root_rates,
)


def mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_from_roots(roots, quadratics=(), scale=Fraction(1)):
    """Product of (x - r) over roots and (x^2 + q) over quadratics."""
    coeffs = [scale]
    for r in roots:
        coeffs = mul(coeffs, [-Fraction(r), Fraction(1)])
    for q in quadratics:
        coeffs = mul(coeffs, [Fraction(q), Fraction(0), Fraction(1)])
    return tuple(coeffs)


def test_primitive():
    assert primitive(["1/2", "-3/4", 0, 0]) == (2, -3)
    assert primitive([-6, 4, -2]) == (-3, 2, -1)  # the sign is kept
    assert primitive([Fraction(5, 3)]) == (1,)
    assert primitive([0, 0]) == ()
    assert primitive([]) == ()


def test_sturm_sequence_shape():
    p = poly_from_roots([1, 2, 3])
    chain = sturm_sequence(p)
    assert chain[0] == primitive(p) == p  # already primitive
    assert [len(q) for q in chain] == [4, 3, 2, 1]  # squarefree: ends in a constant
    assert sturm_sequence([Fraction(1, 2), 3]) == [(1, 6), (1,)]
    with pytest.raises(ValueError):
        sturm_sequence([])


def test_positive_root_count_known_cases():
    assert positive_root_count(poly_from_roots([1, 2, 3])) == (3, True)
    assert positive_root_count(poly_from_roots([-1, -2])) == (0, True)
    assert positive_root_count(poly_from_roots([0, 0, 5])) == (1, True)
    # double root: counted once, flagged non-simple
    assert positive_root_count(poly_from_roots([2, 2])) == (1, False)
    # negative double root does not break simplicity of positive roots
    assert positive_root_count(poly_from_roots([-1, -1, 4])) == (1, True)
    assert positive_root_count([7]) == (0, True)
    with pytest.raises(ValueError):
        positive_root_count([0])


def test_positive_root_count_against_constructed_roots():
    rng = random.Random(51)
    for _ in range(150):
        pool = [
            Fraction(rng.randint(1, 9), rng.randint(1, 4)),
            Fraction(-rng.randint(1, 9), rng.randint(1, 4)),
            Fraction(rng.randint(1, 9), rng.randint(1, 4)),
            Fraction(0),
        ]
        roots = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        quads = [rng.randint(1, 5) for _ in range(rng.randint(0, 2))]
        scale = Fraction(rng.choice([-3, -1, 1, 2]))
        p = poly_from_roots(roots, quads, scale)
        expected = len({r for r in roots if r > 0})
        expected_simple = all(
            roots.count(r) == 1 for r in set(roots) if r > 0
        )
        count, simple = positive_root_count(p)
        assert count == expected
        assert simple == expected_simple


def test_stable_positive_root_count():
    # falling cubic: down, up, down crossings
    p = poly_from_roots([1, 2, 3], scale=Fraction(-1))
    assert stable_positive_root_count(p) == (3, 2)
    # rising cubic: up, down, up
    assert stable_positive_root_count(poly_from_roots([1, 2, 3])) == (3, 1)
    assert stable_positive_root_count(poly_from_roots([-1, -2])) == (0, 0)
    with pytest.raises(ValueError):
        stable_positive_root_count(poly_from_roots([2, 2]))


def test_family_polynomial():
    p = family_polynomial("G", 2, 3, (1, 3, 1))
    assert p == (Fraction(1), Fraction(-3), Fraction(1))
    q = family_polynomial("Gbar", 2, 3, (1, 3, 1, "1/16"))
    assert q == (Fraction(1), Fraction(-3), Fraction(1), Fraction(-1, 16))
    # m > n flips the sign of the top coefficients
    r = family_polynomial("G", 3, 2, (1, 1, 1))
    assert r == (Fraction(1), Fraction(-1), Fraction(0), Fraction(-1))
    with pytest.raises(ValueError):
        family_polynomial("G", 2, 2, (1, 1, 1))
    with pytest.raises(ValueError):
        family_polynomial("G", 2, 3, (1, 1))
    with pytest.raises(ValueError):
        family_polynomial("G", 2, 3, (0, 1, 1))
    with pytest.raises(ValueError):
        family_polynomial("Gbar", 2, 3, (1, 1, 1))


def test_two_root_rates():
    for m, n in [(2, 3), (2, 4), (3, 4), (2, 5), (4, 5)]:
        s, l, k = two_root_rates(m, n)
        p = family_polynomial("G", m, n, (s, l, k))
        assert positive_root_count(p) == (2, True)
    assert two_root_rates(2, 3) == (1, 3, 1)
    with pytest.raises(ValueError):
        two_root_rates(1, 2)
    with pytest.raises(ValueError):
        two_root_rates(3, 2)


def test_multistable_rates():
    for m, n in [(2, 3), (3, 4)]:
        s, l, kp, km = multistable_rates(m, n)
        p = family_polynomial("Gbar", m, n, (s, l, kp, km))
        assert positive_root_count(p) == (3, True)
        assert stable_positive_root_count(p) == (3, 2)
    assert multistable_rates(2, 3) == (1, 3, 1, Fraction(1, 16))


def evaluate(p, x):
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


rationals = st.builds(Fraction, st.integers(1, 40), st.integers(1, 7))


@st.composite
def constructed_polynomials(draw):
    """(p, its distinct positive roots ascending): p is built from
    distinct positive roots, negative roots, x^2 + q factors, an optional
    root at zero and a nonzero rational scale."""
    positive = sorted(draw(st.sets(rationals, max_size=4)))
    negative = [-r for r in draw(st.lists(rationals, max_size=3))]
    quadratics = draw(st.lists(rationals, max_size=2))
    zeros = [0] * draw(st.integers(0, 2))
    scale = draw(rationals) * draw(st.sampled_from([-1, 1]))
    return poly_from_roots(positive + negative + zeros, quadratics, scale), positive


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(constructed_polynomials(), rationals, rationals, rationals, rationals)
def test_sturm_counts_match_constructed_roots(case, factor, s, l, k):
    p, roots = case
    assert positive_root_count(p) == (len(roots), True)
    # p at a point left of, between and right of its positive roots
    points = [roots[0] / 2] if roots else []
    points += [(a + b) / 2 for a, b in zip(roots, roots[1:])]
    points += [roots[-1] + 1] if roots else []
    values = [evaluate(p, x) for x in points]
    downward = sum(a > 0 > b for a, b in zip(values, values[1:]))
    assert stable_positive_root_count(p) == (len(roots), downward)
    scaled = [factor * c for c in p]
    assert positive_root_count(scaled) == positive_root_count(p)
    assert stable_positive_root_count(scaled) == stable_positive_root_count(p)
    for m in range(1, 7):
        for n in range(1, 7):
            if m != n:
                g = family_polynomial("G", m, n, (s, l, k))
                assert g == family_polynomial("Gbar", m, n, (s, l, k, 0))
