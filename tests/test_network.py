"""Tests for the network model and the text format."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnmss.embedding import embedded_network
from crnmss.families import FamilySpec, generate
from crnmss.network import (
    MAX_COEFFICIENT,
    Complex,
    ParseError,
    Reaction,
    ReactionNetwork,
    make_network,
    parse_network,
    render_complex,
    render_network,
    render_reaction,
)
from crnmss.structure import stoich
from helpers import random_network


def test_complex_of_merges_and_drops_zeros():
    c = Complex.of({0: 1, 2: 3})
    assert c.items == ((0, 1), (2, 3))
    assert Complex.of({0: 0, 1: 2}).items == ((1, 2),)
    assert Complex.of({}).is_zero


def test_complex_accessors():
    c = Complex.of({0: 2, 3: 1})
    assert c.coeff(0) == 2
    assert c.coeff(1) == 0
    assert c.support == (0, 3)
    assert not c.is_single_molecule
    assert Complex.of({2: 1}).is_single_molecule
    assert not Complex.of({2: 2}).is_single_molecule


def test_complex_restrict_and_rename():
    c = Complex.of({0: 2, 1: 1, 3: 4})
    assert c.restrict([0, 3]).items == ((0, 2), (3, 4))
    assert c.restrict([]).is_zero
    assert c.rename({0: 5, 1: 0, 3: 1}).items == ((0, 1), (1, 4), (5, 2))


def test_complex_validation():
    with pytest.raises(ValueError):
        Complex(((1, 1), (0, 1)))  # unsorted
    with pytest.raises(ValueError):
        Complex(((0, 0),))  # zero coefficient
    with pytest.raises(ValueError):
        Complex(((0, -1),))
    with pytest.raises(ValueError, match="exceeds supported bound"):
        Complex(((0, MAX_COEFFICIENT + 1),))


def test_reaction_basics():
    a = Complex.of({0: 1})
    b = Complex.of({1: 1})
    zero = Complex(())
    r = Reaction(a, b)
    assert r.reversed_() == Reaction(b, a)
    assert not r.is_flow
    assert Reaction(zero, a).is_flow
    assert Reaction(a, zero).is_flow
    assert not Reaction(zero, Complex.of({0: 2})).is_flow
    with pytest.raises(ValueError):
        Reaction(a, a)


complexes = st.dictionaries(
    st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=2), max_size=3
).map(Complex.of)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(complexes, complexes, complexes, complexes)
def test_complex_and_reaction_equality_and_hash_follow_their_items(a, b, c, d):
    # equal objects hash equal; a copy is equal but not the same object
    for cpx in (a, b):
        copy = Complex(cpx.items)
        assert copy is not cpx and copy == cpx and hash(copy) == hash(cpx)
        # never equal to its items tuple, in either order
        assert cpx != cpx.items and cpx.items != cpx
    assert (a == b) == (a.items == b.items)
    if a == b:
        assert hash(a) == hash(b)
    if a == b or c == d:
        return
    ab, cd = Reaction(a, b), Reaction(c, d)
    assert Reaction(Complex(a.items), Complex(b.items)) == ab
    assert ab != Reaction(b, a) and Reaction(b, a) != ab
    assert (ab == cd) == (a == c and b == d)
    if ab == cd:
        assert hash(ab) == hash(cd)
    assert a != ab and ab != a and ab != (a, b) and ab != (a.items, b.items)
    assert len({ab, Reaction(Complex(a.items), Complex(b.items)), Reaction(b, a)}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.items = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        ab.reactant = b


def test_make_network_and_accessors():
    net = parse_network("A -> B\nB -> A\nA + B -> 2 A")
    assert net.num_species == 2
    assert net.num_reactions == 3
    assert net.species_names() == ("A", "B")
    assert len(net.complexes()) == 4


def test_network_validation():
    a = Complex.of({0: 1})
    b = Complex.of({1: 1})
    with pytest.raises(ValueError):
        make_network(["A", "A"], [Reaction(a, b)])
    with pytest.raises(ValueError):
        make_network(["A", "2B"], [Reaction(a, b)])
    with pytest.raises(ValueError):
        make_network(["A", "B"], [Reaction(a, b), Reaction(a, b)])
    with pytest.raises(ValueError):
        # reaction mentions species index 2, only 2 species declared
        make_network(["A", "B"], [Reaction(a, Complex.of({2: 1}))])
    with pytest.raises(ValueError, match="species appearing in no reaction: C"):
        make_network(["A", "B", "C"], [Reaction(a, b)])
    # 0 species, 0 reactions is a valid (empty) network
    empty = make_network([], [])
    assert empty.num_species == 0 and empty.num_reactions == 0


def test_parse_species_numbered_by_first_appearance():
    net = parse_network("C -> A\nA -> B")
    assert net.species_names() == ("C", "A", "B")


def test_parse_reversible_order_and_comments():
    net = parse_network("# header\nA <-> B  # inline\n\n0 -> A")
    assert net.num_reactions == 3
    r0, r1, r2 = net.reactions
    assert r0.reactant == Complex.of({0: 1}) and r0.product == Complex.of({1: 1})
    assert r1 == r0.reversed_()
    assert r2.reactant.is_zero


def test_parse_coefficients_with_and_without_space():
    net = parse_network("2A + B -> 3 B")
    assert net.reactions[0].reactant == Complex.of({0: 2, 1: 1})
    assert net.reactions[0].product == Complex.of({1: 3})


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_network("A -> B\nA -> -> B")
    with pytest.raises(ParseError, match="line 1"):
        parse_network("A -> A")
    with pytest.raises(ParseError, match="line 3"):
        parse_network("A -> B\n\nA -> B")
    with pytest.raises(ParseError):
        parse_network("A B")
    with pytest.raises(ParseError):
        parse_network("A + 0 -> B")
    with pytest.raises(ParseError):
        parse_network("0A -> B")


def test_parse_arrow_messages():
    for text in ("A -> B -> C", "A <-> B <-> C"):
        with pytest.raises(ParseError) as info:
            parse_network(text)
        assert str(info.value) == "line 1: expected exactly one arrow"
    with pytest.raises(ParseError) as info:
        parse_network("A B")
    assert str(info.value) == "line 1: missing reaction arrow '->' or '<->'"
    # a line holding <-> splits on it alone, so a stray -> lands in a term
    with pytest.raises(ParseError) as info:
        parse_network("A <-> B -> C")
    assert str(info.value) == "line 1: cannot parse term 'B -> C'"
    with pytest.raises(ParseError) as info:
        parse_network("A <-> B\nB -> A")
    assert (info.value.kind, info.value.line) == ("duplicate-reaction", 2)
    assert str(info.value) == "line 2: duplicate reaction"


def test_parse_rejects_huge_coefficients():
    with pytest.raises(ParseError, match="coefficient"):
        parse_network("1000000001 A -> B")


def test_parse_bounds_the_merged_coefficient_of_a_repeated_term():
    with pytest.raises(ParseError) as info:
        parse_network("A -> B\n600000000 A + 600000000 A -> B")
    assert info.value.kind == "coefficient-overflow"
    assert info.value.line == 2
    assert str(info.value) == "line 2: coefficient 1200000000 of A exceeds bound 1000000000"
    # a sum that reaches the bound exactly is accepted
    net = parse_network("500000000 A + 500000000 A -> B")
    assert net.reactions[0].reactant.items == ((0, 10**9),)


def test_render_roundtrip():
    text = "2 A + B -> 3 C\n0 -> A\nC -> 0"
    net = parse_network(text)
    assert render_network(net) == text
    again = parse_network(render_network(net))
    assert again.species_names() == net.species_names()
    assert again.reactions == net.reactions
    # K(2,3) renders X3 before X2, so parsing numbers them the other way
    k23 = generate(FamilySpec("K", 2, 3))
    again = parse_network(render_network(k23))
    assert again != k23
    assert again.species_names() == ("X1", "X3", "X2")


def reactions_by_name(net):
    """Each reaction as (reactant, product), a complex as sorted (name, coefficient) pairs."""
    names = net.species_names()
    return [
        tuple(tuple(sorted((names[i], c) for i, c in cpx)) for cpx in rxn.complexes())
        for rxn in net.reactions
    ]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_render_then_parse_round_trip(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_species=5, max_reactions=5, max_coeff=3)
    # renumber the species so that index order is not first-appearance order
    order = list(range(net.num_species))
    rng.shuffle(order)
    renumber = {old: new for new, old in enumerate(order)}
    shuffled = make_network(
        [net.species[i] for i in order],
        [Reaction(r.reactant.rename(renumber), r.product.rename(renumber)) for r in net.reactions],
    )
    embedded = embedded_network(
        net,
        reactions=[i for i in range(net.num_reactions) if rng.random() < 0.3],
        species=[i for i in range(net.num_species) if rng.random() < 0.3],
    )
    sequestration = generate(FamilySpec("K", rng.randint(1, 3), rng.randint(2, 6)))
    for case in (net, shuffled, embedded, sequestration):
        parsed = parse_network(render_network(case))
        assert reactions_by_name(parsed) == reactions_by_name(case)
        again = parse_network(render_network(parsed))
        assert again.species == parsed.species
        assert again.reactions == parsed.reactions


def reference_columns(net):
    """Per species, its (reactant, product) coefficients in each reaction."""
    return [
        [(rxn.reactant.coeff(i), rxn.product.coeff(i)) for rxn in net.reactions]
        for i in range(net.num_species)
    ]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_columns_match_their_definition(seed):
    net = random_network(random.Random(seed), max_species=5, max_reactions=5, max_coeff=3)
    assert [list(col) for col in net.columns] == reference_columns(net)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_column_masks_match_their_definition(seed):
    net = random_network(random.Random(seed), max_species=5, max_reactions=5, max_coeff=3)
    assert len(net.column_masks) == net.num_species
    for col, by_key in zip(reference_columns(net), net.column_masks):
        assert set(by_key) == set(col)
        for key, mask in by_key.items():
            assert mask == sum(1 << j for j, pair in enumerate(col) if pair == key)


def fraction_rank(rows):
    """Rank by Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_cached_stoich_data_matches_its_definition(seed):
    net = random_network(random.Random(seed), max_species=5, max_reactions=5, max_coeff=3)
    species = range(net.num_species)
    gamma = tuple(
        tuple(rxn.product.coeff(i) - rxn.reactant.coeff(i) for rxn in net.reactions)
        for i in species
    )
    reactant = tuple(tuple(rxn.reactant.coeff(i) for i in species) for rxn in net.reactions)
    data = stoich(net)
    assert data.stoich_matrix == gamma
    assert data.reactant_matrix == reactant
    assert data.rank == fraction_rank(gamma)
    assert stoich(net) is data


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_reading_columns_leaves_equality_and_hash_alone(seed):
    net = random_network(random.Random(seed), max_species=5, max_reactions=5, max_coeff=3)
    # reaction order does not matter to equality
    twin = make_network(net.species_names(), reversed(net.reactions))
    before = hash(net)
    net.columns
    stoich(net)
    assert hash(net) == before == hash(twin)
    assert net == twin and twin == net
    assert {twin: "twin"}[net] == "twin"


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_reading_column_masks_leaves_equality_and_hash_alone(seed):
    net = random_network(random.Random(seed), max_species=5, max_reactions=5, max_coeff=3)
    twin = make_network(net.species_names(), reversed(net.reactions))
    before = hash(net)
    net.column_masks
    assert "column_masks" in net.__dict__ and "column_masks" not in twin.__dict__
    assert hash(net) == before == hash(twin)
    assert net == twin and twin == net
    assert {twin: "twin"}[net] == "twin"


def test_render_complex():
    names = ("A", "B")
    assert render_complex(Complex(()), names) == "0"
    assert render_complex(Complex.of({0: 1, 1: 2}), names) == "A + 2 B"
    assert render_reaction(Reaction(Complex(()), Complex.of({0: 1, 1: 2})), names) == "0 -> A + 2 B"
