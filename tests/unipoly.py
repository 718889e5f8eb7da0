"""Univariate polynomials over the rationals with Sturm root counting.

A polynomial is a coefficient sequence, ascending by degree, whose entries
are anything ``Fraction()`` accepts.  Sturm chains run on primitive integer
tuples: every rescaling on the way is by a positive factor, so sign
variation counts are unchanged, and coefficient growth stays in check.

The exact reference for the one-species families G and Gbar: acceptance
criteria 2 and 5 and the witness tests count the positive roots of their
steady-state polynomials here.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd, lcm
from typing import Sequence


def primitive(coeffs: Sequence[Fraction | int | str]) -> tuple[int, ...]:
    """The polynomial rescaled by a positive rational to coprime integers,
    trailing zeros dropped; () for the zero polynomial."""
    vals = [Fraction(c) for c in coeffs]
    while vals and vals[-1] == 0:
        vals.pop()
    den = lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (den // v.denominator) for v in vals]
    g = gcd(*ints) or 1
    return tuple(v // g for v in ints)


def _rem(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Remainder of a by b up to a positive factor, in primitive form.

    Each step scales the partial remainder by |lead(b)| before it cancels
    the leading term, so everything stays integral.
    """
    r = list(a)
    lb = b[-1]
    while len(r) >= len(b):
        f = r.pop() if lb > 0 else -r.pop()
        if f:
            shift = len(r) - len(b) + 1
            r = [abs(lb) * c for c in r]
            for i, c in enumerate(b[:-1]):
                r[shift + i] -= f * c
    return primitive(r)


def sturm_sequence(p: Sequence[Fraction | int | str]) -> list[tuple[int, ...]]:
    """Canonical Sturm chain of p, each member in primitive integer form."""
    chain = [primitive(p)]
    if not chain[0]:
        raise ValueError("Sturm sequence of the zero polynomial")
    r = primitive([i * c for i, c in enumerate(chain[0])][1:])
    while r:
        chain.append(r)
        r = tuple(-c for c in _rem(chain[-2], chain[-1]))
    return chain


def _variations(values: Sequence[int]) -> int:
    """Sign changes along the nonzero values."""
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _without_zero_roots(p: Sequence[Fraction | int | str]) -> tuple[int, ...]:
    """Primitive form of p with its roots at zero divided out."""
    q = primitive(p)
    if not q:
        raise ValueError("positive root count of the zero polynomial")
    return q[next(i for i, c in enumerate(q) if c):]


def positive_root_count(p: Sequence[Fraction | int | str]) -> tuple[int, bool]:
    """(number of distinct positive real roots, all of them simple?).

    Roots at zero are factored out first so the left endpoint is sound.
    The simplicity flag refers to the original polynomial's positive
    roots: it is True iff gcd(p, p') has no positive root.
    """
    chain = sturm_sequence(_without_zero_roots(p))
    # values at 0 are the constant terms, signs at +infinity the leading ones
    count = _variations([c[0] for c in chain]) - _variations([c[-1] for c in chain])
    # the final chain element is gcd(p, p') up to a positive factor
    tail = chain[-1]
    return count, len(tail) == 1 or positive_root_count(tail)[0] == 0


def stable_positive_root_count(p: Sequence[Fraction | int | str]) -> tuple[int, int]:
    """(distinct positive roots, how many are stable as 1-d steady states).

    A root is stable when the polynomial crosses downward there.  Requires
    every positive root to be simple.  Then q = p / a^k with q(0) != 0
    changes sign at each positive root, as p does, so the crossings
    alternate and the first one goes down exactly when q(0) > 0.
    """
    count, simple = positive_root_count(p)
    if not simple:
        raise ValueError("multiple positive root detected; stability is undefined")
    return count, (count + (_without_zero_roots(p)[0] > 0)) // 2


def family_polynomial(
    family: str, m: int, n: int, rates: Sequence[Fraction | int | str]
) -> tuple[Fraction, ...]:
    """Steady-state polynomial of the one-species families, ascending by
    degree with trailing zeros dropped.

    family "G"    rates (s, l, k):        s - l a + (n-m) k a^m
    family "Gbar" rates (s, l, kp, km):   s - l a + (n-m) kp a^m - (n-m) km a^n

    G is Gbar with km = 0.
    """
    if m < 1 or n < 1 or m == n:
        raise ValueError("family parameters require m, n >= 1 and m != n")
    vals = [Fraction(r) for r in rates]
    if family == "G":
        if len(vals) != 3:
            raise ValueError("family G takes rates (s, l, k)")
        if min(vals) <= 0:
            raise ValueError("rates must be positive")
        vals.append(Fraction(0))
    elif family == "Gbar":
        if len(vals) != 4:
            raise ValueError("family Gbar takes rates (s, l, k_forward, k_backward)")
        if min(vals[:3]) <= 0 or vals[3] < 0:
            raise ValueError("rates must be positive (backward rate may be zero)")
    else:
        raise ValueError(f"unknown one-species family {family!r}")
    s, l, kp, km = vals
    coeffs = [Fraction(0)] * (max(m, n) + 1)
    coeffs[0] = s
    coeffs[1] -= l
    coeffs[m] += (n - m) * kp
    coeffs[n] -= (n - m) * km
    while coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def two_root_rates(m: int, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Rates (s, l, k) giving the irreversible one-species polynomial two
    simple positive roots; requires n > m > 1.

    With s = 1 and k = 1/(n-m) the polynomial is 1 - l a + a^m, which has
    two positive crossings exactly when l exceeds min_{a>0} (1 + a^m)/a.
    """
    if not (n > m > 1):
        raise ValueError("two positive roots require n > m > 1")
    bound = (m / (m - 1)) * (m - 1) ** (1.0 / m)
    s, l, k = Fraction(1), Fraction(ceil(bound) + 1), Fraction(1, n - m)
    count, simple = positive_root_count(family_polynomial("G", m, n, (s, l, k)))
    if count != 2 or not simple:
        raise RuntimeError("derived rates failed the exact two-root check")
    return s, l, k


def multistable_rates(m: int, n: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Rates (s, l, k_forward, k_backward) giving the reversible
    one-species polynomial three simple positive roots with two stable.

    Starts from the two-root irreversible rates and shrinks the backward
    rate by halving until the third (large) root appears with the
    down-up-down crossing pattern, verified by exact counting.
    """
    if not (n > m > 1):
        raise ValueError("derived multistable rates require n > m > 1")
    s, l, kp = two_root_rates(m, n)
    km = Fraction(1)
    for _ in range(200):
        poly = family_polynomial("Gbar", m, n, (s, l, kp, km))
        count, simple = positive_root_count(poly)
        if simple and count == 3:
            total, stable = stable_positive_root_count(poly)
            if total == 3 and stable == 2:
                return s, l, kp, km
        km /= 2
    raise RuntimeError("backward-rate perturbation never reached three roots")
