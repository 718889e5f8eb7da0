"""Univariate polynomials over the rationals with Sturm root counting.

Coefficients are stored dense, ascending by degree, with an exact
Fraction for each.  Sturm sequence elements are reduced to primitive
integer form after every remainder step (a positive rescaling, so sign
variation counts are unchanged) to keep coefficient growth in check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd
from typing import Sequence


@dataclass(frozen=True)
class UniPoly:
    coeffs: tuple[Fraction, ...]  # coeffs[i] multiplies a^i; no trailing zeros

    @classmethod
    def of(cls, coeffs: Sequence[Fraction | int | str]) -> "UniPoly":
        vals = [Fraction(c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        return cls(tuple(vals))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x: Fraction | int) -> Fraction:
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def derivative(self) -> "UniPoly":
        return UniPoly.of([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift_down(self) -> tuple["UniPoly", int]:
        """Factor out the highest power of a dividing the polynomial."""
        if self.is_zero:
            return self, 0
        k = 0
        while self.coeffs[k] == 0:
            k += 1
        return UniPoly.of(self.coeffs[k:]), k

    def __neg__(self) -> "UniPoly":
        return UniPoly.of([-c for c in self.coeffs])


def _rem(a: UniPoly, b: UniPoly) -> UniPoly:
    """Remainder of a by b over the rationals."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a.coeffs)
    db, lb = b.degree, b.leading()
    while len(r) - 1 >= db and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        f = r[-1] / lb
        shift = len(r) - 1 - db
        for i, c in enumerate(b.coeffs):
            r[shift + i] -= f * c
        r.pop()
    return UniPoly.of(r)


def _primitive(p: UniPoly) -> UniPoly:
    """Primitive integer form; the rescaling factor is always positive."""
    if p.is_zero:
        return p
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in p.coeffs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return UniPoly.of([Fraction(v, g) for v in ints])


def sturm_sequence(p: UniPoly) -> list[UniPoly]:
    """Canonical Sturm chain of p (primitive-reduced at every step)."""
    if p.is_zero:
        raise ValueError("Sturm sequence of the zero polynomial")
    chain = [_primitive(p)]
    d = p.derivative()
    if d.is_zero:
        return chain
    chain.append(_primitive(d))
    while True:
        r = _rem(chain[-2], chain[-1])
        if r.is_zero:
            return chain
        chain.append(_primitive(-r))


def _variations(signs: Sequence[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def positive_root_count(p: UniPoly) -> tuple[int, bool]:
    """(number of distinct positive real roots, all of them simple?).

    Roots at zero are factored out first so the left endpoint is sound.
    The simplicity flag refers to the original polynomial's positive
    roots: it is True iff gcd(p, p') has no positive root.
    """
    if p.is_zero:
        raise ValueError("positive root count of the zero polynomial")
    reduced, _ = p.shift_down()
    if reduced.degree == 0:
        return 0, True
    chain = sturm_sequence(reduced)
    v0 = _variations([_sign(q(Fraction(0))) for q in chain])
    vinf = _variations([_sign(q.leading()) for q in chain])
    count = v0 - vinf
    tail = chain[-1]
    if tail.degree == 0:
        simple = True
    else:
        # the final chain element is gcd(p, p') up to a positive factor
        simple = positive_root_count(tail)[0] == 0
    return count, simple


def stable_positive_root_count(p: UniPoly) -> tuple[int, int]:
    """(distinct positive roots, how many are stable as 1-d steady states).

    A root is stable when the polynomial crosses downward there.  Requires
    every positive root to be simple.  Then q = p / a^k with q(0) != 0
    changes sign at each positive root, as p does, so the crossings
    alternate and the first one goes down exactly when q(0) > 0.
    """
    count, simple = positive_root_count(p)
    if not simple:
        raise ValueError("multiple positive root detected; stability is undefined")
    reduced, _ = p.shift_down()
    return count, (count + (reduced.coeffs[0] > 0)) // 2


def family_polynomial(
    family: str, m: int, n: int, rates: Sequence[Fraction | int | str]
) -> UniPoly:
    """Steady-state polynomial of the one-species families.

    family "G"    rates (s, l, k):        s - l a + (n-m) k a^m
    family "Gbar" rates (s, l, kp, km):   s - l a + (n-m) kp a^m - (n-m) km a^n
    """
    if m < 1 or n < 1 or m == n:
        raise ValueError("family parameters require m, n >= 1 and m != n")
    vals = [Fraction(r) for r in rates]
    if family == "G":
        if len(vals) != 3:
            raise ValueError("family G takes rates (s, l, k)")
        s, l, k = vals
        if s <= 0 or l <= 0 or k <= 0:
            raise ValueError("rates must be positive")
        coeffs = [Fraction(0)] * (m + 1)
        coeffs[0] = s
        coeffs[1] += -l
        coeffs[m] += (n - m) * k
        return UniPoly.of(coeffs)
    if family == "Gbar":
        if len(vals) != 4:
            raise ValueError("family Gbar takes rates (s, l, k_forward, k_backward)")
        s, l, kp, km = vals
        if s <= 0 or l <= 0 or kp <= 0 or km < 0:
            raise ValueError("rates must be positive (backward rate may be zero)")
        coeffs = [Fraction(0)] * (max(m, n) + 1)
        coeffs[0] = s
        coeffs[1] += -l
        coeffs[m] += (n - m) * kp
        coeffs[n] += -(n - m) * km
        return UniPoly.of(coeffs)
    raise ValueError(f"unknown one-species family {family!r}")


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
