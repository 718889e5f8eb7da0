"""Reaction network data model and the plain-text network format.

A network is a finite list of named species together with directed
reactions between complexes.  A complex is a formal non-negative integer
combination of species, stored sparsely.  All coefficients are exact
integers; no floating point enters at this layer.

Text format, one reaction per line::

    # comment
    A + B -> 3 A + C
    0 <-> A          # reversible, expands to two directed reactions

``0`` denotes the empty complex.  Species are created in order of first
appearance.  ``render_network`` emits a canonical form that parses back
to the same reactions by species name, and to an equal network when
species are numbered in order of first appearance, as ``parse_network``
numbers them.

``Complex`` and ``Reaction`` are values: two of them are equal iff they
have the same class and the same items (a reaction's items are those of
its reactant and its product), and they hash on those items tuples.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Mapping, NamedTuple

from .linalg import rank_int

# Upper bound on a single stoichiometric coefficient; guards against
# typos like "10000000000 A" rather than any arithmetic limitation.
MAX_COEFFICIENT = 10**9

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TERM_RE = re.compile(r"^\s*(?:(\d+)\s*)?([A-Za-z_][A-Za-z0-9_]*)\s*$")


class ParseError(ValueError):
    """Raised for any defect in network text (syntax, duplicates, ...).

    ``kind`` is one of "syntax", "duplicate-reaction", "trivial-reaction",
    "coefficient-overflow".  ``line`` is 1-based when known.
    """

    def __init__(self, message: str, kind: str = "syntax", line: int | None = None):
        self.kind = kind
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True, slots=True)
class Complex:
    """Sparse complex: sorted tuple of (species index, positive coefficient)."""

    items: tuple[tuple[int, int], ...]

    # written out so that a set or dict operation runs one Python frame;
    # the dataclass's own methods would compare and hash a 1-tuple
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.items == other.items
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.items)

    def __post_init__(self) -> None:
        prev = -1
        for idx, coeff in self.items:
            if idx <= prev:
                raise ValueError("complex items must be strictly sorted by species index")
            if coeff < 1:
                raise ValueError("complex coefficients must be positive")
            if coeff > MAX_COEFFICIENT:
                raise ValueError("stoichiometric coefficient exceeds supported bound")
            prev = idx

    @classmethod
    def of(cls, coeffs: Mapping[int, int]) -> "Complex":
        """The complex with these coefficients by species index; zeros drop."""
        return cls(tuple(sorted((i, c) for i, c in coeffs.items() if c != 0)))

    @property
    def is_zero(self) -> bool:
        return not self.items

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(idx for idx, _ in self.items)

    def coeff(self, index: int) -> int:
        for idx, c in self.items:
            if idx == index:
                return c
        return 0

    def restrict(self, kept: Container[int]) -> "Complex":
        """Zero out every species not in ``kept``, which is read as it is
        (one membership test per item), so pass a set when it is large."""
        return Complex(tuple(p for p in self.items if p[0] in kept))

    def rename(self, mapping: Mapping[int, int]) -> "Complex":
        return Complex.of({mapping[i]: c for i, c in self.items})

    @property
    def is_single_molecule(self) -> bool:
        return len(self.items) == 1 and self.items[0][1] == 1

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.items)


@dataclass(frozen=True, slots=True)
class Reaction:
    reactant: Complex
    product: Complex

    # one frame per comparison or hash, on the complexes' items tuples
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.reactant.items == other.reactant.items
                and self.product.items == other.product.items
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.reactant.items, self.product.items))

    def __post_init__(self) -> None:
        if self.reactant == self.product:
            raise ValueError("trivial reaction: reactant equals product")

    def reversed_(self) -> "Reaction":
        return Reaction(self.product, self.reactant)

    @property
    def is_flow(self) -> bool:
        """True for inflow 0 -> X and outflow X -> 0 (single molecule)."""
        r, p = self.reactant, self.product
        return (r.is_zero and p.is_single_molecule) or (p.is_zero and r.is_single_molecule)

    def complexes(self) -> tuple[Complex, Complex]:
        return (self.reactant, self.product)


@dataclass(frozen=True)
class StoichData:
    """A network's stoichiometric matrix Gamma, whose column k is product
    minus reactant of reaction k and whose columns span the stoichiometric
    subspace, and its reactant matrix M, whose row k is that reactant."""

    stoich_matrix: tuple[tuple[int, ...], ...]  # s x r
    reactant_matrix: tuple[tuple[int, ...], ...]  # r x s

    @functools.cached_property
    def rank(self) -> int:
        """Dimension of the stoichiometric subspace, computed on first use."""
        return rank_int(self.stoich_matrix)


class Flows(NamedTuple):
    """A network's flow partition: the species with an inflow 0 -> X, the
    species with an outflow X -> 0, and the indices of all other reactions."""

    inflows: frozenset[int]
    outflows: frozenset[int]
    non_flow: tuple[int, ...]


@dataclass(frozen=True)
class ReactionNetwork:
    species: tuple[str, ...]  # names; species i is the name at position i
    reactions: tuple[Reaction, ...]

    def __post_init__(self) -> None:
        for name in self.species:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(
                    f"invalid species name {name!r}: names are identifier-like "
                    "(letters, digits, underscore, not starting with a digit)"
                )
        if len(set(self.species)) != len(self.species):
            raise ValueError("duplicate species name")
        used: set[int] = set()
        seen: set[Reaction] = set()
        for rxn in self.reactions:
            if rxn in seen:
                raise ValueError("duplicate reaction")
            seen.add(rxn)
            for cpx in rxn.complexes():
                for idx, _ in cpx:
                    if idx >= len(self.species):
                        raise ValueError("complex references unknown species index")
                    used.add(idx)
        if used != set(range(len(self.species))):
            missing = sorted(set(range(len(self.species))) - used)
            raise ValueError(
                "species appearing in no reaction: "
                + ", ".join(self.species[i] for i in missing)
            )

    @property
    def num_species(self) -> int:
        return len(self.species)

    @property
    def num_reactions(self) -> int:
        return len(self.reactions)

    def species_names(self) -> tuple[str, ...]:
        return self.species

    @functools.cached_property
    def stoich_data(self) -> StoichData:
        """Gamma and the reactant matrix: the one place where the sparse
        complexes become dense integers.  Computed once per network;
        equality and hashing ignore it."""
        s = self.num_species
        reactant_rows, gamma_cols = [], []
        for rxn in self.reactions:
            reactant = [0] * s
            for idx, c in rxn.reactant.items:
                reactant[idx] = c
            gamma_col = [-c for c in reactant]
            for idx, c in rxn.product.items:
                gamma_col[idx] += c
            reactant_rows.append(tuple(reactant))
            gamma_cols.append(gamma_col)
        return StoichData(tuple(zip(*gamma_cols)), tuple(reactant_rows))

    @functools.cached_property
    def columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per species, its (reactant, product) coefficients in each
        reaction, read off ``stoich_data`` once per network."""
        data = self.stoich_data
        return tuple(
            tuple((y[i], y[i] + g) for y, g in zip(data.reactant_matrix, row))
            for i, row in enumerate(data.stoich_matrix)
        )

    @functools.cached_property
    def column_masks(self) -> tuple[dict[tuple[int, int], int], ...]:
        """Per species, each (reactant, product) pair of its ``columns``
        mapped to the bitmask of the reactions that have it: bit j is set
        under (a, b) exactly when ``columns[i][j] == (a, b)``.  Read-only."""
        masks = []
        for col in self.columns:
            by_key: dict[tuple[int, int], int] = {}
            for j, key in enumerate(col):
                by_key[key] = by_key.get(key, 0) | 1 << j
            masks.append(by_key)
        return tuple(masks)

    def subnetwork(self, reactions: Iterable[Reaction]) -> "ReactionNetwork":
        """The network of ``reactions``, given in this network's species
        indexing, over the species they use, renumbered densely; names are
        kept."""
        reactions = tuple(reactions)
        used = sorted({idx for rxn in reactions for cpx in rxn.complexes() for idx, _ in cpx})
        renumber = {old: new for new, old in enumerate(used)}
        renamed = tuple(
            Reaction(r.reactant.rename(renumber), r.product.rename(renumber)) for r in reactions
        )
        return make_network([self.species[i] for i in used], renamed)

    @functools.cached_property
    def flows(self) -> Flows:
        """The flow partition, from one pass over the reactions: the only
        reader of ``Reaction.is_flow``.  Equality and hashing ignore it."""
        inflows, outflows, non_flow = set(), set(), []
        for j, rxn in enumerate(self.reactions):
            if not rxn.is_flow:
                non_flow.append(j)
            elif rxn.reactant.is_zero:
                inflows.add(rxn.product.items[0][0])
            else:
                outflows.add(rxn.reactant.items[0][0])
        return Flows(frozenset(inflows), frozenset(outflows), tuple(non_flow))

    @functools.cached_property
    def non_flow(self) -> "ReactionNetwork":
        """The non-flow subnetwork g0: the inflows and outflows removed,
        with any species they orphan.  Built by its first reader, once per
        network; equality and hashing ignore it."""
        return self.subnetwork(self.reactions[j] for j in self.flows.non_flow)

    def complexes(self) -> tuple[Complex, ...]:
        """Distinct complexes in order of first appearance (reactant, product)."""
        # keyed by the items tuples, whose hash and equality run in C
        first: dict[tuple[tuple[int, int], ...], Complex] = {}
        for rxn in self.reactions:
            first.setdefault(rxn.reactant.items, rxn.reactant)
            first.setdefault(rxn.product.items, rxn.product)
        return tuple(first.values())

    def __eq__(self, other: object) -> bool:
        # Reaction order is irrelevant; species order (and names) matter.
        if not isinstance(other, ReactionNetwork):
            return NotImplemented
        return self.species == other.species and frozenset(self.reactions) == frozenset(
            other.reactions
        )

    def __hash__(self) -> int:
        return hash((self.species, frozenset(self.reactions)))


def make_network(names: Iterable[str], reactions: Iterable[Reaction]) -> ReactionNetwork:
    return ReactionNetwork(tuple(names), tuple(reactions))


def _parse_complex(text: str, names: list[str], name_to_idx: dict[str, int], line: int) -> Complex:
    text = text.strip()
    if not text:
        raise ParseError("empty complex (use 0 for the zero complex)", line=line)
    if text == "0":
        return Complex(())
    coeffs: dict[int, int] = {}
    for term in text.split("+"):
        term = term.strip()
        if term == "0":
            raise ParseError("0 denotes the zero complex and cannot appear in a sum", line=line)
        m = _TERM_RE.match(term)
        if not m:
            raise ParseError(f"cannot parse term {term!r}", line=line)
        coeff = int(m.group(1)) if m.group(1) else 1
        if coeff == 0:
            raise ParseError("zero coefficient is not allowed", line=line)
        name = m.group(2)
        if name not in name_to_idx:
            name_to_idx[name] = len(names)
            names.append(name)
        idx = name_to_idx[name]
        # a repeated term adds to the species' coefficient, so bound the sum
        coeffs[idx] = coeffs.get(idx, 0) + coeff
        if coeffs[idx] > MAX_COEFFICIENT:
            raise ParseError(
                f"coefficient {coeffs[idx]} of {name} exceeds bound {MAX_COEFFICIENT}",
                kind="coefficient-overflow",
                line=line,
            )
    return Complex.of(coeffs)


def parse_network(text: str) -> ReactionNetwork:
    """Parse network text into a ReactionNetwork.

    Species are numbered by first appearance.  ``<->`` produces the two
    directed reactions in forward, backward order.
    """
    names: list[str] = []
    name_to_idx: dict[str, int] = {}
    reactions: list[Reaction] = []
    seen: set[Reaction] = set()

    def add(rxn_reactant: Complex, rxn_product: Complex, line: int) -> None:
        if rxn_reactant == rxn_product:
            raise ParseError(
                "trivial reaction: reactant equals product", kind="trivial-reaction", line=line
            )
        rxn = Reaction(rxn_reactant, rxn_product)
        if rxn in seen:
            raise ParseError("duplicate reaction", kind="duplicate-reaction", line=line)
        seen.add(rxn)
        reactions.append(rxn)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        arrow = "<->" if "<->" in line else "->"
        parts = line.split(arrow)
        if len(parts) == 1:
            raise ParseError("missing reaction arrow '->' or '<->'", line=lineno)
        if len(parts) != 2:
            raise ParseError("expected exactly one arrow", line=lineno)
        lhs = _parse_complex(parts[0], names, name_to_idx, lineno)
        rhs = _parse_complex(parts[1], names, name_to_idx, lineno)
        add(lhs, rhs, lineno)
        if arrow == "<->":
            add(rhs, lhs, lineno)

    return make_network(names, reactions)


def render_complex(cpx: Complex, names: tuple[str, ...] | list[str]) -> str:
    if cpx.is_zero:
        return "0"
    parts = []
    for idx, coeff in cpx.items:
        parts.append(names[idx] if coeff == 1 else f"{coeff} {names[idx]}")
    return " + ".join(parts)


def render_reaction(rxn: Reaction, names: tuple[str, ...] | list[str]) -> str:
    """One directed reaction in the text format, e.g. ``A + B -> 2 A``."""
    return f"{render_complex(rxn.reactant, names)} -> {render_complex(rxn.product, names)}"


def render_network(net: ReactionNetwork) -> str:
    """Canonical text: one directed reaction per line, in stored order."""
    names = net.species_names()
    return "\n".join(render_reaction(r, names) for r in net.reactions)
