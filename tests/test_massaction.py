"""Tests for exact mass-action systems and their Jacobians."""

import random
from fractions import Fraction

import pytest

from crnmss.massaction import jacobian, mass_action_system
from crnmss.network import parse_network
from helpers import random_network


def test_rhs_known_values():
    net = parse_network("A + B -> 2 A\nA -> 0")
    sys = mass_action_system(net, [2, 3])
    # dA/dt = 2ab - 3a, dB/dt = -2ab
    x = [Fraction(1, 2), Fraction(4)]
    assert sys.rhs(x) == [Fraction(4) - Fraction(3, 2), Fraction(-4)]
    # steady state of A <-> B at k=(1,1) is the diagonal
    net2 = parse_network("A <-> B")
    sys2 = mass_action_system(net2, [1, 1])
    assert sys2.rhs([Fraction(3), Fraction(3)]) == [0, 0]


def test_rhs_zero_order_terms():
    net = parse_network("0 -> A\nA -> 0")
    sys = mass_action_system(net, [5, 1])
    assert sys.rhs([Fraction(2)]) == [Fraction(3)]
    assert sys.rhs([Fraction(5)]) == [0]


def test_rate_validation():
    net = parse_network("A -> B")
    with pytest.raises(ValueError):
        mass_action_system(net, [1, 2])
    with pytest.raises(ValueError):
        mass_action_system(net, [0])
    with pytest.raises(ValueError):
        mass_action_system(net, [-1])
    sys = mass_action_system(net, ["1/3"])
    assert sys.kappa == (Fraction(1, 3),)


def test_jacobian_known_value():
    net = parse_network("A + B -> 2 A\nA -> 0")
    sys = mass_action_system(net, [2, 3])
    # f_A = 2ab - 3a, f_B = -2ab at (a, b) = (1/2, 4)
    jac = jacobian(sys, [Fraction(1, 2), 4])
    assert jac == [[Fraction(5), Fraction(1)], [Fraction(-8), Fraction(-1)]]


def test_jacobian_matches_finite_differences():
    rng = random.Random(21)
    step = 1e-5
    for _ in range(25):
        net = random_network(rng, max_species=3, max_reactions=3)
        kappa = [Fraction(rng.randint(1, 5)) for _ in range(net.num_reactions)]
        sys = mass_action_system(net, kappa)
        x = [Fraction(rng.randint(1, 4)) for _ in range(net.num_species)]
        jac = jacobian(sys, x)
        for j in range(net.num_species):
            hi = list(map(float, x))
            lo = list(map(float, x))
            hi[j] += step
            lo[j] -= step
            fhi = [float(v) for v in sys.rhs([Fraction(v) for v in hi])]
            flo = [float(v) for v in sys.rhs([Fraction(v) for v in lo])]
            for i in range(net.num_species):
                approx = (fhi[i] - flo[i]) / (2 * step)
                exact = float(jac[i][j])
                assert abs(approx - exact) <= 1e-6 * max(1.0, abs(exact))


def test_jacobian_requires_positive_point():
    net = parse_network("2 A -> A")
    sys = mass_action_system(net, [1])
    with pytest.raises(ValueError):
        jacobian(sys, [0])
