"""Tests for stoichiometry, linkage structure, and deficiency."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnmss.embedding import fully_open_extension
from crnmss.linalg import rank_int
from crnmss.network import parse_network
from crnmss.structure import deficiency, stoich, strong_components
from helpers import random_network


def test_stoich_matrices():
    net = parse_network("A + B -> 2 A\nA -> 0")
    data = stoich(net)
    # columns are product minus reactant
    assert data.stoich_matrix == ((1, -1), (-1, 0))
    assert data.reactant_matrix == ((1, 1), (1, 0))
    assert data.rank == 2


def test_stoich_rank_is_matrix_rank():
    rng = random.Random(11)
    for _ in range(50):
        net = random_network(rng)
        data = stoich(net)
        assert data.rank == rank_int(data.stoich_matrix)


def test_linkage_classes():
    # {A, B, C} and {D, E, 0}
    assert deficiency(parse_network("A -> B\nB -> C\nD -> E\n0 -> D")).num_linkage_classes == 2


def test_strong_components_ordering_and_partition():
    # 0 -> 1 -> 2 -> 1, 3 isolated
    comps = strong_components(4, [(0, 1), (1, 2), (2, 1)])
    as_sets = [set(c) for c in comps]
    assert {1, 2} in as_sets
    assert {0} in as_sets
    assert {3} in as_sets
    assert sorted(v for c in comps for v in c) == [0, 1, 2, 3]


def test_terminal_strong_linkage_classes():
    # only C is terminal; {A, B} is strong but escapes to C
    assert deficiency(parse_network("A -> B\nB -> A\nB -> C")).applicable
    # B and C are both terminal in the one linkage class
    assert not deficiency(parse_network("A -> B\nA -> C")).applicable


def _closure(n: int, edges: list[tuple[int, int]]) -> list[list[bool]]:
    """Reflexive transitive closure by Warshall's algorithm."""
    reach = [[u == v for v in range(n)] for u in range(n)]
    for u, v in edges:
        reach[u][v] = True
    for w in range(n):
        for u in range(n):
            if reach[u][w]:
                reach[u] = [a or b for a, b in zip(reach[u], reach[w])]
    return reach


def test_deficiency_classes_match_warshall_closure():
    outcomes = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def check(seed):
        net = random_network(random.Random(seed), max_species=3, max_reactions=6, max_coeff=1)
        for case in (net, fully_open_extension(net)):
            index = {cpx: i for i, cpx in enumerate(case.complexes())}
            n = len(index)
            edges = [(index[rxn.reactant], index[rxn.product]) for rxn in case.reactions]
            reach = _closure(n, edges)
            linked = _closure(n, edges + [(v, u) for u, v in edges])
            linkage = {frozenset(v for v in range(n) if linked[u][v]) for u in range(n)}
            strong = {frozenset(v for v in range(n) if reach[u][v] and reach[v][u]) for u in range(n)}
            terminal = [c for c in strong if all(v in c for u, v in edges if u in c)]
            rep = deficiency(case)
            assert rep.num_linkage_classes == len(linkage)
            assert rep.applicable == (len(terminal) == len(linkage))
            outcomes.add(rep.applicable)

    check()
    assert outcomes == {True, False}


def test_weak_reversibility():
    assert deficiency(parse_network("A -> B\nB -> A")).weakly_reversible
    assert deficiency(parse_network("A -> B\nB -> C\nC -> A")).weakly_reversible
    assert not deficiency(parse_network("A -> B\nB -> C")).weakly_reversible
    assert not deficiency(parse_network("A -> B\nB -> A\nB -> C")).weakly_reversible


def _returns_along_every_reaction(net) -> bool:
    """Weak reversibility by its second definition: every reaction y -> y'
    has a directed path y' -> y in the complex graph."""
    succ: dict = {}
    for rxn in net.reactions:
        succ.setdefault(rxn.reactant, set()).add(rxn.product)

    def reaches(start, goal) -> bool:
        seen, stack = {start}, [start]
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            for nxt in succ.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    return all(reaches(rxn.product, rxn.reactant) for rxn in net.reactions)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_deficiency_weak_reversibility_matches_return_paths(seed):
    # unit coefficients and up to 6 reactions make about a third of these
    # networks weakly reversible
    net = random_network(random.Random(seed), max_species=3, max_reactions=6, max_coeff=1)
    assert deficiency(net).weakly_reversible == _returns_along_every_reaction(net)


def test_deficiency_classic_values():
    # single reversible pair: 2 complexes, 1 class, rank 1
    rep = deficiency(parse_network("A <-> B"))
    assert rep.applicable and rep.total == 0 and rep.per_class == (0,)

    # triangle: 3 complexes, 1 class, rank 2
    rep = deficiency(parse_network("A -> B\nB -> C\nC -> A"))
    assert rep.total == 0

    # complexes {2A, A+B, B, A}, classes {2A, A+B} and {B, A}, rank 1
    rep = deficiency(parse_network("2 A <-> A + B\nB <-> A"))
    assert rep.applicable
    assert rep.num_complexes == 4
    assert rep.num_linkage_classes == 2
    assert rep.rank == 1
    assert rep.total == 1
    assert rep.per_class == (0, 0)


def test_deficiency_not_applicable():
    from crnmss.decide import check_deficiency_zero, network_facts

    net = parse_network("A -> B\nA -> C")
    rep = deficiency(net)
    assert not rep.applicable
    assert rep.total is None
    assert rep.per_class is None
    assert check_deficiency_zero(network_facts(net)) == (
        "deficiency formula not applicable: some linkage class contains more "
        "than one terminal strong linkage class"
    )


def test_deficiency_per_class_sums_to_at_most_total():
    rng = random.Random(12)
    seen_applicable = 0
    for _ in range(80):
        net = random_network(rng)
        rep = deficiency(net)
        if not rep.applicable:
            continue
        seen_applicable += 1
        assert rep.total is not None and rep.total >= 0
        assert all(d >= 0 for d in rep.per_class)
        assert sum(rep.per_class) <= rep.total
        assert rep.total == rep.num_complexes - rep.num_linkage_classes - rep.rank
    assert seen_applicable > 20


def test_deficiency_per_class_matches_rebuilt_reaction_vectors():
    shared = []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def check(seed):
        # up to 8 species and 12 reactions: several linkage classes, most
        # of them on species that other classes use too
        net = random_network(random.Random(seed), max_species=8, max_reactions=12, max_coeff=2)
        rep = deficiency(net)
        if not rep.applicable:
            return
        complexes = net.complexes()
        s = net.num_species
        expected = []
        index = {cpx: i for i, cpx in enumerate(complexes)}
        edges = [(index[rxn.reactant], index[rxn.product]) for rxn in net.reactions]
        seen: set[int] = set()
        for lc in strong_components(len(index), edges + [(v, u) for u, v in edges]):
            members = {complexes[i] for i in lc}
            species = {i for cpx in members for i in cpx.support}
            shared.append(bool(species & seen))
            seen |= species
            vectors = [
                [rxn.product.coeff(i) - rxn.reactant.coeff(i) for i in range(s)]
                for rxn in net.reactions
                if rxn.reactant in members
            ]
            gamma = [[v[i] for v in vectors] for i in range(s)] if vectors else []
            expected.append(len(lc) - 1 - rank_int(gamma))
        assert rep.per_class == tuple(expected)

    check()
    assert sum(shared) > 100


def test_network_facts_finds_strong_components_twice(monkeypatch):
    import crnmss.structure
    from crnmss.decide import network_facts

    calls = []
    find = crnmss.structure.strong_components

    def counting(num_nodes, edges):
        calls.append(edges)
        return find(num_nodes, edges)

    # once on the complex graph, once with every edge also reversed
    monkeypatch.setattr(crnmss.structure, "strong_components", counting)
    network_facts(parse_network("A -> B\nB -> A\nB -> C\n2 C <-> D"))
    assert len(calls) == 2


def test_network_facts_lists_the_complexes_once(monkeypatch):
    from crnmss.decide import network_facts
    from crnmss.network import ReactionNetwork

    calls = []
    listing = ReactionNetwork.complexes

    def counting(net):
        calls.append(net)
        return listing(net)

    monkeypatch.setattr(ReactionNetwork, "complexes", counting)
    net = parse_network("A -> B\nB -> A\nB -> C\n2 C <-> D")
    facts = network_facts(net)
    assert len(calls) == 1
    assert facts.deficiency.num_complexes == 5
    # the cached index is not part of the network's value
    assert net == parse_network("A -> B\nB -> A\nB -> C\n2 C <-> D")
    assert hash(net) == hash(parse_network("A -> B\nB -> A\nB -> C\n2 C <-> D"))


@pytest.mark.parametrize("length", [5, 50])
def test_network_facts_ranks_a_single_linkage_class_once(monkeypatch, length):
    import crnmss.network
    import crnmss.structure
    from crnmss.decide import network_facts

    calls = []
    rank = crnmss.structure.rank_int

    def counting(matrix):
        calls.append(matrix)
        return rank(matrix)

    # rank Gamma is computed with the network's cached matrices
    monkeypatch.setattr(crnmss.network, "rank_int", counting)
    monkeypatch.setattr(crnmss.structure, "rank_int", counting)
    cycle = "\n".join(f"X{i} -> X{(i + 1) % length}" for i in range(length))
    facts = network_facts(parse_network(cycle))
    assert len(calls) == 1
    assert facts.deficiency.per_class == (0,)
    assert facts.deficiency.rank == length - 1


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_strong_components_match_mutual_reachability(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 40)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))] if n else []
    reach = _closure(n, edges)
    expected = []
    for u in range(n):
        group = [v for v in range(n) if reach[u][v] and reach[v][u]]
        if group not in expected:
            expected.append(group)
    assert strong_components(n, edges) == sorted(expected)


@pytest.mark.parametrize("closed", [False, True])
def test_strong_components_search_paths_deeper_than_the_recursion_limit(closed):
    n = 5000
    assert n > sys.getrecursionlimit()
    edges = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if closed else [])
    expected = [list(range(n))] if closed else [[i] for i in range(n)]
    assert strong_components(n, edges) == expected
