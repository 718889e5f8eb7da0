"""Mass-action kinetics: species ODE right-hand sides and exact Jacobians.

Under mass-action kinetics reaction k with reactant exponent vector y_k
fires at rate kappa_k * x^{y_k}, and contributes that rate times column k
of the stoichiometric matrix to dx/dt.  Everything here is exact rational
arithmetic; the floating point Newton solver lives elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .network import ReactionNetwork
from .structure import stoich


@dataclass(frozen=True)
class MassActionSystem:
    """A reaction network with fixed positive rational rate constants.

    ``terms`` lists one entry per reaction: (rate constant, reactant
    exponent vector, stoichiometric column).  The right-hand side for
    species i is sum_k kappa_k * x^{y_k} * gamma[i][k].
    """

    network: ReactionNetwork
    kappa: tuple[Fraction, ...]
    terms: tuple[tuple[Fraction, tuple[int, ...], tuple[int, ...]], ...]

    @property
    def num_species(self) -> int:
        return self.network.num_species

    def monomial(self, exponents: tuple[int, ...], x: Sequence[Fraction]) -> Fraction:
        out = Fraction(1)
        for e, xi in zip(exponents, x):
            if e:
                out *= Fraction(xi) ** e
        return out

    def rhs(self, x: Sequence[Fraction]) -> list[Fraction]:
        """Exact dx/dt at a point with every coordinate positive."""
        s = self.num_species
        out = [Fraction(0)] * s
        for k_const, expo, gamma_col in self.terms:
            rate = k_const * self.monomial(expo, x)
            for i in range(s):
                if gamma_col[i]:
                    out[i] += rate * gamma_col[i]
        return out


def mass_action_system(
    net: ReactionNetwork, kappa: Sequence[Fraction | int | str]
) -> MassActionSystem:
    if len(kappa) != net.num_reactions:
        raise ValueError(
            f"expected {net.num_reactions} rate constants, got {len(kappa)}"
        )
    rates = tuple(Fraction(k) for k in kappa)
    if any(k <= 0 for k in rates):
        raise ValueError("rate constants must be positive")
    data = stoich(net)
    terms = zip(rates, data.reactant_matrix, zip(*data.stoich_matrix))
    return MassActionSystem(net, rates, tuple(terms))


def jacobian(system: MassActionSystem, x: Sequence[Fraction | int | str]) -> list[list[Fraction]]:
    """Exact Jacobian of the mass-action right-hand side at positive x.

    d/dx_j of kappa_k x^{y_k} is kappa_k y_kj x^{y_k - e_j}; the x_j = 0
    guard never divides because a zero exponent kills the term first.
    """
    pt = [Fraction(v) for v in x]
    if any(v <= 0 for v in pt):
        raise ValueError("Jacobian is evaluated at strictly positive points")
    s = system.num_species
    jac = [[Fraction(0)] * s for _ in range(s)]
    for k_const, expo, gamma_col in system.terms:
        rate = k_const * system.monomial(expo, pt)
        for j in range(s):
            if expo[j] == 0:
                continue
            dmon = rate * expo[j] / pt[j]
            for i in range(s):
                if gamma_col[i]:
                    jac[i][j] += dmon * gamma_col[i]
    return jac
