"""Seeded random generators and exact references shared by the suites.

The references decide what the package decides by another route and are
reached only from tests: the brute-force sign-vector form of injectivity
(acceptance criterion 6) and the table of known verdicts for the named
families.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from crnmss import embedding
from crnmss.decide import InjectivityReport, _unit_rows
from crnmss.embedding import LimitExceeded
from crnmss.families import FamilySpec
from crnmss.lp import solve_feasibility
from crnmss.network import Complex, Reaction, ReactionNetwork, make_network
from crnmss.structure import stoich


def random_network(
    rng: random.Random,
    max_species: int = 4,
    max_reactions: int = 4,
    max_coeff: int = 2,
) -> ReactionNetwork:
    """Random network with every species used; sizes are upper bounds."""
    while True:
        ns = rng.randint(1, max_species)
        nr = rng.randint(1, max_reactions)
        reactions: list[Reaction] = []
        seen: set[Reaction] = set()
        for _ in range(nr):
            for _attempt in range(60):
                reactant = {i: c for i in range(ns) if (c := rng.randint(0, max_coeff))}
                product = {i: c for i in range(ns) if (c := rng.randint(0, max_coeff))}
                if reactant == product:
                    continue
                rxn = Reaction(Complex.of(reactant), Complex.of(product))
                if rxn in seen:
                    continue
                seen.add(rxn)
                reactions.append(rxn)
                break
        if not reactions:
            continue
        used = sorted(
            {i for rxn in reactions for i, _ in rxn.reactant.items}
            | {i for rxn in reactions for i, _ in rxn.product.items}
        )
        remap = {old: new for new, old in enumerate(used)}
        names = [f"S{old + 1}" for old in used]
        remapped = [
            Reaction(rxn.reactant.rename(remap), rxn.product.rename(remap))
            for rxn in reactions
        ]
        return make_network(names, remapped)


def random_cfstr(
    rng: random.Random,
    max_species: int = 4,
    max_nonflow: int = 4,
    max_coeff: int = 2,
) -> ReactionNetwork:
    """Random network completed with an outflow for every species."""
    base = random_network(rng, max_species, max_nonflow, max_coeff)
    zero = Complex(())
    reactions = list(base.reactions)
    for i in range(base.num_species):
        outflow = Reaction(Complex.of({i: 1}), zero)
        if outflow not in reactions:
            reactions.append(outflow)
    return make_network(base.species_names(), reactions)


def random_open_monomolecular(
    rng: random.Random, max_species: int = 3, max_pairs: int = 3
) -> ReactionNetwork:
    """Fully open network plus reversible single-molecule conversions.

    Every complex is the zero complex or a single species, so the result
    is weakly reversible with deficiency zero.
    """
    ns = rng.randint(1, max_species)
    names = [f"S{i + 1}" for i in range(ns)]
    zero = Complex(())
    reactions: list[Reaction] = []
    for i in range(ns):
        species = Complex.of({i: 1})
        reactions.append(Reaction(zero, species))
        reactions.append(Reaction(species, zero))
    pairs: set[tuple[int, int]] = set()
    for _ in range(rng.randint(0, max_pairs)):
        if ns < 2:
            break
        i, j = rng.sample(range(ns), 2)
        if (i, j) in pairs or (j, i) in pairs:
            continue
        pairs.add((i, j))
        reactions.append(Reaction(Complex.of({i: 1}), Complex.of({j: 1})))
        reactions.append(Reaction(Complex.of({j: 1}), Complex.of({i: 1})))
    return make_network(names, reactions)


SignVector = tuple[int, ...]


def _sign_patterns(length: int) -> Iterator[SignVector]:
    """Nonzero sign vectors with first nonzero entry +1 (one per +- pair)."""
    for pattern in itertools.product((1, -1, 0), repeat=length):
        for v in pattern:
            if v == 1:
                yield pattern
                break
            if v == -1:
                break


def _sign_constraints(pattern: SignVector, rows: Sequence[Sequence[int]] | None = None):
    """(zero_rows, one_rows) forcing sign(rows_i . x) = pattern_i on a free x,
    scale-normalized to >= 1.  Without ``rows`` the rows are the unit rows.

    The free x is written u - v over doubled columns, so each row c becomes
    (c, -c), and a negative sign is the negated row >= 1.
    """
    if rows is None:
        rows = _unit_rows(len(pattern))
    zero_rows, one_rows = [], []
    for row, want in zip(rows, pattern):
        split = [*row, *(-c for c in row)]
        if want == 0:
            zero_rows.append(split)
        else:
            one_rows.append([want * c for c in split])
    return zero_rows, one_rows


def injectivity_signvectors(net: ReactionNetwork) -> InjectivityReport:
    """Brute-force sign-vector form of the injectivity condition.

    The network fails injectivity exactly when some nonzero x whose sign
    pattern occurs in the stoichiometric subspace has sign(Mx) realizable
    in ker(Gamma).  The shared sign vector may be zero (x is what must be
    nonzero); that case is the counterpart of the all-minors-zero outcome
    of the determinant form.  Every sign pattern membership is decided by
    exact LP.  Exponential in species and reaction counts: when the
    3^(s + r) pairs of sign patterns exceed ``embedding.WORK_LIMIT`` the
    route raises ``LimitExceeded`` before any LP.
    """
    s, r = net.num_species, net.num_reactions
    if 3 ** (s + r) > embedding.WORK_LIMIT:
        raise LimitExceeded(
            f"{3 ** (s + r)} sign pattern pairs exceed the work bound {embedding.WORK_LIMIT}"
        )
    data = stoich(net)
    gamma_rows, reactant_rows = data.stoich_matrix, data.reactant_matrix  # s x r, r x s
    gamma_zero, _ = _sign_constraints((0,) * s, rows=gamma_rows)  # Gamma x = 0

    def kernel_realizable(tau: SignVector) -> bool:
        zero_rows, one_rows = _sign_constraints(tau)
        return solve_feasibility(2 * r, gamma_zero + zero_rows, one_rows) is not None

    def subspace_realizable(sigma_pat: SignVector) -> bool:
        return solve_feasibility(2 * r, *_sign_constraints(sigma_pat, rows=gamma_rows)) is not None

    # sign patterns of kernel vectors; negating the witness x mirrors both
    # patterns at once, so half the tau candidates suffice provided the
    # sigma candidates below run over both halves
    kernel_taus: list[SignVector] = [(0,) * r]
    if data.rank < r:
        kernel_taus.extend(tau for tau in _sign_patterns(r) if kernel_realizable(tau))

    # nonzero sign patterns of the stoichiometric subspace, both halves
    subspace_signs: list[SignVector] = []
    for pat in _sign_patterns(s):
        if data.rank == s or subspace_realizable(pat):
            subspace_signs.append(pat)
            subspace_signs.append(tuple(-v for v in pat))

    for tau in kernel_taus:
        for sigma_pat in subspace_signs:
            zero_x, one_x = _sign_constraints(sigma_pat)
            zero_mx, one_mx = _sign_constraints(tau, rows=reactant_rows)
            if solve_feasibility(2 * s, zero_x + zero_mx, one_x + one_mx) is not None:
                return InjectivityReport("not-injective")
    return InjectivityReport("injective")


@dataclass(frozen=True)
class ExpectedVerdict:
    multistationary: bool | None  # None = not settled
    multistable: bool | None
    source: str
    note: str | None = None


def expected_verdict(spec: FamilySpec) -> ExpectedVerdict:
    """Known status of the fully open extension of the family member
    (G, Gbar, H and the atoms are already fully open)."""
    family, m, n = spec.family, spec.m, spec.n
    if family == "G":
        mss = n > m > 1
        return ExpectedVerdict(
            multistationary=mss,
            multistable=False,
            source="one-reaction classification; at most one stable state",
        )
    if family == "Gbar":
        both = m > 1 and n > 1
        return ExpectedVerdict(
            multistationary=both,
            multistable=both,
            source="reversible one-reaction classification and cubic-type steady state polynomial",
        )
    if family == "H":
        mss = m > 1 and n > 1
        return ExpectedVerdict(
            multistationary=mss,
            multistable=None,
            source="one-reaction classification",
        )
    if family == "K":
        mss = m > 1 and n % 2 == 1
        note = (
            "nondegeneracy of the two steady states is conjectural"
            if mss
            else None
        )
        return ExpectedVerdict(
            multistationary=mss,
            multistable=None,
            source="sequestration network orientation analysis",
            note=note,
        )
    return ExpectedVerdict(
        multistationary=True,
        multistable=None,
        source="two-reaction atom classification",
    )
