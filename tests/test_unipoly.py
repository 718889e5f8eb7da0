"""Tests for exact univariate polynomials and Sturm root counting."""

import random
from fractions import Fraction

import pytest

from crnmss.unipoly import (
    UniPoly,
    family_polynomial,
    multistable_rates,
    positive_root_count,
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
    return UniPoly.of(coeffs)


def test_unipoly_basics():
    p = UniPoly.of([1, -3, 1, 0])
    assert p.degree == 2
    assert p.coeffs == (Fraction(1), Fraction(-3), Fraction(1))
    assert p(Fraction(2)) == 1 - 6 + 4
    assert p.derivative().coeffs == (Fraction(-3), Fraction(2))
    assert (-p).coeffs == (Fraction(-1), Fraction(3), Fraction(-1))
    assert UniPoly.of([0, 0]).is_zero
    assert UniPoly.of([]).degree == -1
    with pytest.raises(ValueError):
        UniPoly.of([]).leading()


def test_shift_down():
    # a^3 - a^2 = a^2 (a - 1)
    p = UniPoly.of([0, 0, -1, 1])
    reduced, k = p.shift_down()
    assert k == 2
    assert reduced.coeffs == (Fraction(-1), Fraction(1))
    assert UniPoly.of([5]).shift_down() == (UniPoly.of([5]), 0)


def test_sturm_sequence_shape():
    p = poly_from_roots([1, 2, 3])
    chain = sturm_sequence(p)
    assert chain[0].coeffs == p.coeffs  # already primitive
    assert chain[1].degree == 2
    assert chain[-1].degree == 0  # squarefree input ends in a constant
    with pytest.raises(ValueError):
        sturm_sequence(UniPoly.of([]))


def test_positive_root_count_known_cases():
    assert positive_root_count(poly_from_roots([1, 2, 3])) == (3, True)
    assert positive_root_count(poly_from_roots([-1, -2])) == (0, True)
    assert positive_root_count(poly_from_roots([0, 0, 5])) == (1, True)
    # double root: counted once, flagged non-simple
    assert positive_root_count(poly_from_roots([2, 2])) == (1, False)
    # negative double root does not break simplicity of positive roots
    assert positive_root_count(poly_from_roots([-1, -1, 4])) == (1, True)
    assert positive_root_count(UniPoly.of([7])) == (0, True)
    with pytest.raises(ValueError):
        positive_root_count(UniPoly.of([]))


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
    assert p.coeffs == (Fraction(1), Fraction(-3), Fraction(1))
    q = family_polynomial("Gbar", 2, 3, (1, 3, 1, "1/16"))
    assert q.coeffs == (Fraction(1), Fraction(-3), Fraction(1), Fraction(-1, 16))
    # m > n flips the sign of the top coefficients
    r = family_polynomial("G", 3, 2, (1, 1, 1))
    assert r.coeffs == (Fraction(1), Fraction(-1), Fraction(0), Fraction(-1))
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
