"""Tests for embedded networks, open extensions, and square subnetworks."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnmss import decide
from crnmss.embedding import (
    EmbeddingWitness,
    embedded_network,
    enumerate_sens,
    find_embedding,
    fully_open_extension,
    is_cfstr,
    is_fully_open,
    is_relevant,
    non_flow_subnetwork,
    orientation,
    remove_intermediates,
    restrict_reaction,
    restrict_reactions,
    sen_is_relevant,
    total_molecularity,
    verify_embedding,
)
from crnmss.network import Complex, Reaction, make_network, parse_network, render_network
from helpers import random_cfstr, random_network


def rxn(text):
    return parse_network(text).reactions[0]


def test_restrict_reaction():
    net = parse_network("A + B -> 2 A + C")
    r = net.reactions[0]
    out = restrict_reaction(r, {0, 1})
    assert out == Reaction(Complex.of({0: 1, 1: 1}), Complex.of({0: 2}))
    # restriction to {C} leaves 0 -> C
    out = restrict_reaction(r, {2})
    assert out == Reaction(Complex(()), Complex.of({2: 1}))
    # restricting A + B -> A + C to {A} collapses to A -> A
    assert restrict_reaction(rxn("A + B -> A + C"), {0}) is None


def test_restrict_reactions_drops_duplicates():
    net = parse_network("A + B -> 2 A\nA + C -> 2 A")
    out = restrict_reactions(net.reactions, {0})
    assert out == [Reaction(Complex.of({0: 1}), Complex.of({0: 2}))]


def test_embedded_network_keeps_names():
    net = parse_network("A + B -> 2 A\nB -> C\nC -> 0")
    sub = embedded_network(net, reactions=[2], species=[0])
    assert sub.species_names() == ("B", "C")
    assert render_network(sub) == "B -> 0\nB -> C"
    with pytest.raises(ValueError, match="^reaction index 3 out of range$"):
        embedded_network(net, reactions=[3])
    with pytest.raises(ValueError, match="^species index 9 out of range$"):
        embedded_network(net, species=[9])


def test_non_flow_subnetwork_and_open_maps():
    net = parse_network("0 -> A\nA -> 0\nA + B -> 2 A\nB -> 0")
    sub = non_flow_subnetwork(net)
    assert render_network(sub) == "A + B -> 2 A"
    open_net = fully_open_extension(sub)
    assert is_fully_open(open_net)
    assert is_cfstr(open_net)
    assert open_net.num_reactions == 1 + 4
    # idempotent
    assert fully_open_extension(open_net).reactions == open_net.reactions




def reference_every_species_has(net, flow):
    have = set(net.reactions)
    return net.num_species > 0 and all(
        flow(Complex.of({i: 1})) in have for i in range(net.num_species)
    )


def reference_is_cfstr(net):
    return reference_every_species_has(net, lambda mono: Reaction(mono, Complex(())))


def reference_is_fully_open(net):
    return reference_is_cfstr(net) and reference_every_species_has(
        net, lambda mono: Reaction(Complex(()), mono)
    )


def reference_flows(net):
    """Every inflow 0 -> X and outflow X -> 0 over the species of ``net``,
    by species, each inflow before its outflow."""
    zero = Complex(())
    monos = [Complex.of({i: 1}) for i in range(net.num_species)]
    return [r for mono in monos for r in (Reaction(zero, mono), Reaction(mono, zero))]


def reference_non_flow_subnetwork(net):
    """The non-flow subnetwork as an embedded network: flows removed."""
    flows = set(reference_flows(net))
    return embedded_network(net, reactions=[i for i, r in enumerate(net.reactions) if r in flows])


def reference_fully_open_extension(net):
    have = set(net.reactions)
    return net.reactions + tuple(r for r in reference_flows(net) if r not in have)


def reference_total_molecularity(net, species_idx):
    flows = set(reference_flows(net))
    pairs = {frozenset(r.complexes()) for r in net.reactions if r not in flows}
    return sum(c.coeff(species_idx) for pair in pairs for c in pair)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_flow_facts_match_their_definitions(seed):
    rng = random.Random(seed)
    base = random_network(rng, max_species=4, max_reactions=4, max_coeff=2)
    zero = Complex(())
    # 0 -> 2 X and 2 X -> 0 are generalized flows, not flows
    share = rng.choice([0.3, 0.8, 1.0])
    reactions = list(base.reactions)
    for i in range(base.num_species):
        for coeff in (1, 2):
            cpx = Complex.of({i: coeff})
            for r in (Reaction(zero, cpx), Reaction(cpx, zero)):
                if r not in reactions and rng.random() < share:
                    reactions.append(r)
    rng.shuffle(reactions)
    net = make_network(base.species_names(), reactions)
    assert is_cfstr(net) == reference_is_cfstr(net)
    assert is_fully_open(net) == reference_is_fully_open(net)
    assert non_flow_subnetwork(net) == reference_non_flow_subnetwork(net)
    extension = fully_open_extension(net)
    assert extension.species == net.species
    assert extension.reactions == reference_fully_open_extension(net)
    for i in range(net.num_species):
        assert total_molecularity(net, i) == reference_total_molecularity(net, i)


def test_fully_open_extension_keeps_species_indexing():
    net = parse_network("A + B -> 2 A")
    open_net = fully_open_extension(net)
    assert open_net.species_names() == net.species_names()
    assert open_net.reactions[0] == net.reactions[0]


def test_cfstr_vs_fully_open():
    cfstr = parse_network("A -> 0\nB -> 0\nA + B -> 2 A")
    assert is_cfstr(cfstr)
    assert not is_fully_open(cfstr)
    # 0 -> 2A is not an inflow in the flow sense
    weird = parse_network("0 -> 2 A\nA -> 0")
    assert is_cfstr(weird)
    assert not is_fully_open(weird)
    assert not weird.reactions[0].is_flow
    empty = make_network([], [])
    assert not is_cfstr(empty)
    assert not is_fully_open(empty)


def test_remove_intermediates():
    net = parse_network("A -> X\nX -> B\nA -> B")
    out = remove_intermediates(net, [1])  # X has index 1
    assert out.species_names() == ("A", "B")
    # the contracted A -> B duplicates the existing one
    assert render_network(out) == "A -> B"
    with pytest.raises(ValueError):
        remove_intermediates(parse_network("A -> X\n2 X -> B"), [1])
    # chain A -> X -> Y -> B contracts through
    chain = parse_network("A -> X\nX -> Y\nY -> B")
    out = remove_intermediates(chain, [1, 2])
    assert render_network(out) == "A -> B"


def test_orientation_one_by_one():
    net = parse_network("A -> 2 A")
    sens = list(enumerate_sens(net, (1,)))
    assert len(sens) == 1
    assert orientation(sens[0]) == -1
    net2 = parse_network("2 A -> A")
    assert orientation(next(enumerate_sens(net2, (1,)))) == 2


def test_enumerate_sens_skips_trivial_restrictions():
    net = parse_network("A + B -> 2 A\nA + C -> 2 A")
    # reaction 1 restricted to {B} and reaction 0 restricted to {C} are 0 -> 0
    ones = list(enumerate_sens(net, (1,)))
    assert [(s.reaction_indices, s.species_indices) for s in ones] == [
        ((0,), (0,)),
        ((0,), (1,)),
        ((1,), (0,)),
        ((1,), (2,)),
    ]


def test_enumerate_sens_requires_distinct_restrictions():
    # both reactions restrict to A + B -> 2A on species {A, B}
    net = parse_network("A + B + C -> 2 A\nA + B + D -> 2 A")
    two = list(enumerate_sens(net, (2,)))
    pairs = {sen.species_indices for sen in two}
    assert (0, 1) not in pairs
    assert len(two) == 5


def test_enumerate_sens_size_bounds():
    net = parse_network("A -> B")
    assert list(enumerate_sens(net, (0,))) == []
    assert list(enumerate_sens(net, (2,))) == []
    assert len(list(enumerate_sens(net, (1,)))) == 2


def test_total_molecularity_counts_reversible_pair_once():
    net = parse_network("A <-> B\n0 -> A\nA -> 0")
    assert total_molecularity(net, 0) == 1
    assert total_molecularity(net, 1) == 1
    net2 = parse_network("2 A <-> A + B\nA + B -> C")
    assert total_molecularity(net2, 0) == 3 + 1
    assert total_molecularity(net2, 1) == 1 + 1
    assert total_molecularity(net2, 2) == 1


def test_relevance_conditions():
    ok, why = is_relevant(parse_network("A -> 2 A"))
    assert ok and why is None
    checks = [
        ("0 -> A\nA -> 2 A", "inflow"),
        ("2 A -> A", "outflow"),
        ("A + B -> 2 A\n2 A -> A + B", "reversible"),
        ("A + B -> 2 A", "fewer than two complexes"),
        ("A -> 2 B\n2 A -> A + B", "no reactant complex"),
        ("A + B -> C + D\nC -> A\nD -> B", "molecularity"),
    ]
    for text, fragment in checks:
        ok, why = is_relevant(parse_network(text))
        assert not ok and fragment in why


def test_sen_relevance_uses_sen_species():
    # on the host the SEN {A + B -> 2A} over species {A} is A -> 2A
    net = parse_network("A + B -> 2 A\nB -> 0")
    sen = next(
        s
        for s in enumerate_sens(net, (1,))
        if s.reaction_indices == (0,) and s.species_indices == (0,)
    )
    ok, why = sen_is_relevant(sen)
    assert ok and why is None
    assert orientation(sen) == -1
    assert sen.species_names() == ("A",)


def test_verify_and_find_embedding():
    pattern = parse_network("A -> 2 A")
    host = parse_network("X + Y -> 2 X\nY -> 0\nX -> 0")
    w = find_embedding(pattern, host)
    assert w is not None
    assert verify_embedding(pattern, host, w)
    assert w.species_map == (0,)
    assert w.reaction_map == (0,)
    # pattern bigger than host
    assert find_embedding(host, pattern) is None


def test_verify_embedding_rejects_bad_witnesses():
    pattern = parse_network("A -> 2 A")
    host = parse_network("X + Y -> 2 X\nY -> 0")
    assert not verify_embedding(pattern, host, EmbeddingWitness((1,), (0,)))
    assert not verify_embedding(pattern, host, EmbeddingWitness((0,), (1,)))
    assert not verify_embedding(pattern, host, EmbeddingWitness((0, 1), (0,)))
    assert not verify_embedding(pattern, host, EmbeddingWitness((0,), (5,)))


def test_find_embedding_recovers_random_embeddings():
    rng = random.Random(31)
    hits = 0
    for _ in range(60):
        host = random_network(rng, max_species=4, max_reactions=4)
        pattern = embedded_network(
            host,
            reactions=[i for i in range(host.num_reactions) if rng.random() < 0.4],
            species=[i for i in range(host.num_species) if rng.random() < 0.3],
        )
        if pattern.num_reactions == 0:
            continue
        w = find_embedding(pattern, host)
        assert w is not None
        assert verify_embedding(pattern, host, w)
        hits += 1
    assert hits > 30


def reference_embedding(pattern, host):
    """The embedding by definition: the first injective species map, in
    lexicographic order, under which every pattern reaction is the
    restriction of a host reaction, each realized by its first occurrence."""
    for image in itertools.permutations(range(host.num_species), pattern.num_species):
        back = {h: q for q, h in enumerate(image)}
        restricted = [restrict_reaction(r, image) for r in host.reactions]
        renamed = [
            None if r is None else Reaction(r.reactant.rename(back), r.product.rename(back))
            for r in restricted
        ]
        if all(r in renamed for r in pattern.reactions):
            return EmbeddingWitness(image, tuple(renamed.index(r) for r in pattern.reactions))
    return None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_find_embedding_matches_its_definition(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_species=5, max_reactions=5, max_coeff=2)
    for host in (net, fully_open_extension(net)):
        embedded = embedded_network(
            host,
            reactions=[i for i in range(host.num_reactions) if rng.random() < 0.5],
            species=[i for i in range(host.num_species) if rng.random() < 0.4],
        )
        unrelated = random_network(rng, max_species=3, max_reactions=3, max_coeff=2)
        for pattern in (embedded, unrelated):
            assert find_embedding(pattern, host) == reference_embedding(pattern, host)


def reference_find_embedding(pattern, host):
    """The list-narrowing search that the bitmask search replaced: the
    same order, with the host reactions that still match each pattern
    reaction kept as an ascending list."""
    ps, hs = pattern.num_species, host.num_species
    if ps > hs or pattern.num_reactions > host.num_reactions:
        return None

    host_col, pattern_col = host.columns, pattern.columns

    def extend(image, agree):
        q = len(image)
        if q == ps:
            return EmbeddingWitness(image, tuple(js[0] for js in agree))
        for h in range(hs):
            if h in image:
                continue
            narrowed = []
            for js, want in zip(agree, pattern_col[q]):
                kept = [j for j in js if host_col[h][j] == want]
                if not kept:
                    break
                narrowed.append(kept)
            else:
                found = extend(image + (h,), narrowed)
                if found is not None:
                    return found
        return None

    return extend((), [list(range(host.num_reactions))] * pattern.num_reactions)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_find_embedding_matches_the_list_narrowing_search(seed):
    rng = random.Random(seed)
    base = random_network(rng, max_species=6, max_reactions=6, max_coeff=3)
    cfstr = random_cfstr(rng, max_species=6, max_nonflow=6, max_coeff=3)
    for host in (base, fully_open_extension(base), cfstr, fully_open_extension(cfstr)):
        patterns = [atom for _, atom in decide._atom_database(host)]
        patterns += [random_network(rng, max_species=3, max_reactions=3) for _ in range(3)]
        patterns.append(
            embedded_network(
                host,
                reactions=[i for i in range(host.num_reactions) if rng.random() < 0.5],
                species=[i for i in range(host.num_species) if rng.random() < 0.4],
            )
        )
        for pattern in patterns:
            assert find_embedding(pattern, host) == reference_find_embedding(pattern, host)


def test_find_embedding_realizes_each_pattern_reaction_by_the_smallest_index():
    pattern = parse_network("A -> 2 A")
    # species Y, X, Z; reactions 1 and 2 both restrict to X -> 2 X on {X}
    host = parse_network("Y -> X\nX + Y -> 2 X\nX + Z -> 2 X")
    expected = EmbeddingWitness((1,), (1,))
    assert find_embedding(pattern, host) == reference_find_embedding(pattern, host) == expected


def test_find_embedding_of_a_pattern_larger_than_its_host():
    host = parse_network("X -> 2 X\nX -> 0")
    for text in ("A -> 2 A\nA -> 0\n0 -> A", "A + B -> 2 A\nB -> 0"):
        pattern = parse_network(text)
        assert find_embedding(pattern, host) is reference_find_embedding(pattern, host) is None


def test_find_embedding_on_a_host_wider_than_one_machine_word():
    # reaction j is (j + 1) X + Y -> (j + 2) X + Y for j < 70, then two
    # reactions past bit 64 that both restrict to 80 X -> 81 X on {X}
    lines = [f"{j + 1} X + Y -> {j + 2} X + Y" for j in range(70)]
    lines += ["Y -> X", "80 X + Y -> 81 X", "80 X + Z -> 81 X", "Z -> Y"]
    host = parse_network("\n".join(lines))
    assert host.num_reactions == 74
    cases = {
        "68 A -> 69 A": ((0,), (67,)),
        "80 A -> 81 A": ((0,), (71,)),
        "3 A + B -> 4 A + B\n69 A + B -> 70 A + B": ((0, 1), (2, 68)),
        "70 A + B -> 71 A + B\nB -> A": ((0, 1), (69, 70)),
        "80 A + B -> 81 A": ((0, 1), (71,)),
        "71 A -> 72 A": None,
    }
    for text, expected in cases.items():
        pattern = parse_network(text)
        found = find_embedding(pattern, host)
        assert found == reference_find_embedding(pattern, host)
        assert (found and (found.species_map, found.reaction_map)) == expected
