"""Named network families and the multistationary atom corpus.

Families (all parameters positive integers):

* G(m, n):    0 <-> A, m A -> n A            (m != n)
* Gbar(m, n): 0 <-> A, m A <-> n A           (m != n)
* H(m, n):    0 <-> A, 0 <-> B, A + B -> m A + n B   ((m, n) != (1, 1))
* K(m, n):    X1 -> m Xn, Xi + Xi+1 -> 0 for i < n   (n >= 2)
* atom-2rxn(k), k in 1..11: the fully open two-reaction atoms, shipped as
  data files.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

from .network import Complex, Reaction, ReactionNetwork, make_network, parse_network

NUM_ATOMS = 11

_FAMILIES = ("G", "Gbar", "H", "K", "atom-2rxn")


@dataclass(frozen=True)
class FamilySpec:
    family: str
    m: int
    n: int = 0  # unused for atom-2rxn

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "atom-2rxn":
            if not 1 <= self.m <= NUM_ATOMS:
                raise ValueError(f"atom index must be in 1..{NUM_ATOMS}")
            return
        if self.m < 1 or self.n < 1:
            raise ValueError("family parameters must be positive")
        if self.family in ("G", "Gbar") and self.m == self.n:
            raise ValueError("G and Gbar require m != n")
        if self.family == "H" and (self.m, self.n) == (1, 1):
            raise ValueError("H(1, 1) has a trivial non-flow reaction")
        if self.family == "K" and self.n < 2:
            raise ValueError("K requires n >= 2")


@functools.cache  # networks are immutable, so one parse serves every caller
def load_atom(index: int) -> ReactionNetwork:
    if not 1 <= index <= NUM_ATOMS:
        raise ValueError(f"atom index must be in 1..{NUM_ATOMS}")
    text = (
        resources.files("crnmss").joinpath(f"data/atoms/atom{index:02d}.txt").read_text()
    )
    return parse_network(text)


def load_atoms() -> list[tuple[int, ReactionNetwork]]:
    return [(i, load_atom(i)) for i in range(1, NUM_ATOMS + 1)]


@functools.cache  # specs are frozen and networks immutable, as for load_atom
def generate(spec: FamilySpec) -> ReactionNetwork:
    family, m, n = spec.family, spec.m, spec.n
    if family == "atom-2rxn":
        return load_atom(m)
    if family == "G":
        return parse_network(f"0 <-> A\n{m} A -> {n} A")
    if family == "Gbar":
        return parse_network(f"0 <-> A\n{m} A <-> {n} A")
    if family == "H":
        return parse_network(f"0 <-> A\n0 <-> B\nA + B -> {m} A + {n} B")
    names = [f"X{i}" for i in range(1, n + 1)]
    zero = Complex(())
    reactions = [Reaction(Complex.of({0: 1}), Complex.of({n - 1: m}))]
    for i in range(n - 1):
        reactions.append(Reaction(Complex.of({i: 1, i + 1: 1}), zero))
    return make_network(names, reactions)
