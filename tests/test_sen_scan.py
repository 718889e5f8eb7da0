"""Property tests of the square embedded network stream and the injectivity scan."""

import itertools
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnmss.decide import _sen_reactions, cfstr_injectivity, injectivity_minors
from crnmss.embedding import (
    LimitExceeded,
    enumerate_sens,
    fully_open_extension,
    irrelevant_alone,
    non_flow_subnetwork,
    orientation,
    restrict_reaction,
    sen_is_relevant,
)
from crnmss.families import FamilySpec, generate
from crnmss.linalg import det_int
from crnmss.network import Complex, Reaction, make_network, parse_network
from crnmss.structure import stoich
from helpers import random_cfstr, random_network

seeds = st.integers(min_value=0, max_value=2**32 - 1)
property_settings = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def reference_negative_sen(net):
    """The first negative relevant SEN of a reaction-major walk, or None."""
    g0 = non_flow_subnetwork(net)
    for k in range(1, min(g0.num_species, g0.num_reactions) + 1):
        for sen in enumerate_sens(g0, (k,)):
            if sen_is_relevant(sen)[0] and orientation(sen) < 0:
                return sen
    return None


def coefficient_orientation(sen):
    """The orientation built entry by entry from the SEN's own reactions."""
    rows = sen.species_indices
    reactant = [[rxn.reactant.coeff(i) for rxn in sen.reactions] for i in rows]
    diff = [[rxn.reactant.coeff(i) - rxn.product.coeff(i) for rxn in sen.reactions] for i in rows]
    return det_int(reactant) * det_int(diff)


@property_settings
@given(seeds)
def test_orientation_matches_the_coefficient_product(seed):
    base = random_network(random.Random(seed), max_species=4, max_reactions=5, max_coeff=2)
    # a flow-only species F in front, so the non-flow subnetwork renumbers the rest
    shift = {i: i + 1 for i in range(base.num_species)}
    zero, f = Complex(()), Complex.of({0: 1})
    reactions = [Reaction(zero, f), Reaction(f, zero)] + [
        Reaction(r.reactant.rename(shift), r.product.rename(shift)) for r in base.reactions
    ]
    net = make_network(("F",) + base.species_names(), reactions)
    g0 = non_flow_subnetwork(net)
    assert g0.num_species < net.num_species
    for host in (net, g0):
        for k in range(1, min(host.num_species, host.num_reactions) + 1):
            for sen in enumerate_sens(host, (k,)):
                assert orientation(sen) == coefficient_orientation(sen)


def sen_key(sen):
    return sen.reaction_indices, sen.species_indices, sen.reactions


@property_settings
@given(seeds)
def test_scan_matches_reaction_major_reference(seed):
    net = random_cfstr(random.Random(seed), max_species=4, max_nonflow=5, max_coeff=2)
    report = cfstr_injectivity(net)
    expected = reference_negative_sen(net)
    if expected is None:
        assert report.status == "injective"
        assert report.negative_sen is None
    else:
        assert report.status == "not-injective"
        assert sen_key(report.negative_sen) == sen_key(expected)


@property_settings
@given(seeds)
def test_prefilter_is_exact(seed):
    net = random_network(random.Random(seed), max_species=4, max_reactions=5, max_coeff=2)
    for k in range(1, min(net.num_species, net.num_reactions) + 1):
        for sen in enumerate_sens(net, (k,)):
            if any(irrelevant_alone(rxn) is not None for rxn in sen.reactions):
                assert not sen_is_relevant(sen)[0]


@property_settings
@given(seeds)
def test_enumerate_sens_matches_pairwise_restriction(seed):
    net = random_network(random.Random(seed), max_species=4, max_reactions=4, max_coeff=2)
    for k in range(1, min(net.num_species, net.num_reactions) + 1):
        expected = []
        for rxn_subset in itertools.combinations(range(net.num_reactions), k):
            for sp_subset in itertools.combinations(range(net.num_species), k):
                restricted = [restrict_reaction(net.reactions[i], sp_subset) for i in rxn_subset]
                if None not in restricted and len(set(restricted)) == k:
                    expected.append((rxn_subset, sp_subset, tuple(restricted)))
        assert [sen_key(sen) for sen in enumerate_sens(net, (k,))] == expected


def scan_units(net, k, admit=None):
    """Work units of the size-k scan: one per species subset, one per
    combination of its admitted restrictions formed."""
    subsets = list(itertools.combinations(range(net.num_species), k))
    admitted = [
        [
            rxn
            for rxn in net.reactions
            if (res := restrict_reaction(rxn, sp)) and (admit is None or admit(res))
        ]
        for sp in subsets
    ]
    return len(subsets) + sum(math.comb(len(a), k) for a in admitted)


@property_settings
@given(seeds)
def test_filter_drops_exactly_the_sens_holding_a_rejected_restriction(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_species=4, max_reactions=5, max_coeff=2)
    for k in range(1, min(net.num_species, net.num_reactions) + 1):
        unfiltered = list(enumerate_sens(net, (k,)))
        restrictions = dict.fromkeys(rxn for sen in unfiltered for rxn in sen.reactions)
        rejected = {rxn for rxn in restrictions if rng.random() < 0.3}
        filters = (
            lambda res: res not in rejected,
            lambda res: irrelevant_alone(res) is None,
        )
        for admit in filters:
            units = scan_units(net, k, admit)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("crnmss.embedding.WORK_LIMIT", units)
                got = list(enumerate_sens(net, (k,), admit))
                patch.setattr("crnmss.embedding.WORK_LIMIT", units - 1)
                with pytest.raises(LimitExceeded, match=f"work bound {units - 1}$"):
                    list(enumerate_sens(net, (k,), admit))
            expected = [sen for sen in unfiltered if all(map(admit, sen.reactions))]
            assert [sen_key(sen) for sen in got] == [sen_key(sen) for sen in expected]


def assert_admit_asked_once_per_restriction(net):
    sizes = range(1, min(net.num_species, net.num_reactions) + 1)
    # each size on its own, then one scan over all of them
    for scan in [(k,) for k in sizes] + [sizes]:
        asked = []

        def admit(res):
            asked.append(res)
            return irrelevant_alone(res) is None

        list(enumerate_sens(net, scan, admit))
        # a restriction's species are its support, so the host reactions
        # that restrict to it there bound how often one scan may ask, over
        # all of its sizes
        for res, times in Counter(asked).items():
            support = {i for cpx in res.complexes() for i, _ in cpx}
            holders = sum(restrict_reaction(rxn, support) == res for rxn in net.reactions)
            assert times <= holders


@property_settings
@given(seeds)
def test_admit_is_asked_once_per_reaction_and_restriction(seed):
    net = random_network(random.Random(seed), max_species=5, max_reactions=5, max_coeff=2)
    assert_admit_asked_once_per_restriction(net)


def test_admit_is_asked_once_per_reaction_and_restriction_on_sequestration():
    net = fully_open_extension(generate(FamilySpec("K", 2, 10)))
    assert_admit_asked_once_per_restriction(non_flow_subnetwork(net))


def test_injectivity_restricts_each_reaction_and_meet_once(monkeypatch):
    net = fully_open_extension(generate(FamilySpec("K", 2, 10)))
    g0 = non_flow_subnetwork(net)
    index = {rxn: i for i, rxn in enumerate(g0.reactions)}
    calls = Counter()

    def counting(rxn, kept):
        support = {i for cpx in rxn.complexes() for i, _ in cpx}
        calls[index[rxn], frozenset(support.intersection(kept))] += 1
        return restrict_reaction(rxn, kept)

    monkeypatch.setattr("crnmss.embedding.restrict_reaction", counting)
    # injective, so the scan reads every size from 1 to 10
    assert cfstr_injectivity(net).injective
    assert calls
    assert max(calls.values()) == 1


@property_settings
@given(seeds)
def test_one_scan_over_all_sizes_is_the_single_size_scans_in_turn(seed):
    net = random_network(random.Random(seed), max_species=5, max_reactions=5, max_coeff=2)
    sizes = range(1, min(net.num_species, net.num_reactions) + 1)
    for admit in (None, lambda res: irrelevant_alone(res) is None):
        per_size = [[sen_key(sen) for sen in enumerate_sens(net, (k,), admit)] for k in sizes]
        in_turn = [key for keys in per_size for key in keys]
        assert [sen_key(sen) for sen in enumerate_sens(net, sizes, admit)] == in_turn
        # a bound that every size below k meets and size k alone exceeds:
        # the scan yields every SEN below k before it refuses
        units = [scan_units(net, k, admit) for k in sizes]
        refused = [k for k in sizes[1:] if units[k - 1] > max(units[: k - 1])]
        if not refused:
            continue
        k = refused[-1]
        bound = max(units[: k - 1])
        got = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("crnmss.embedding.WORK_LIMIT", bound)
            with pytest.raises(LimitExceeded, match=f"work bound {bound}$"):
                for sen in enumerate_sens(net, sizes, admit):
                    got.append(sen_key(sen))
        below = sum(len(keys) for keys in per_size[: k - 1])
        assert below <= len(got)
        assert got == in_turn[: len(got)]


def test_sequestration_counterexamples_pinned():
    cases = {
        (2, 3): ["X1 -> 2 X3", "X1 + X2 -> 0", "X2 + X3 -> 0"],
        (3, 7): ["X1 -> 3 X7"] + [f"X{i} + X{i + 1} -> 0" for i in range(1, 7)],
    }
    for (m, n), reactions in cases.items():
        net = fully_open_extension(generate(FamilySpec("K", m, n)))
        sen = cfstr_injectivity(net).negative_sen
        assert sen.reaction_indices == tuple(range(n))
        assert sen.species_indices == tuple(range(n))
        assert sen.species_names() == tuple(f"X{i}" for i in range(1, n + 1))
        assert _sen_reactions(sen) == reactions


def test_scan_order_pinned_where_reaction_and_species_major_disagree():
    # two negative relevant SENs of size 1: reaction-major order finds
    # reaction 3 on species 3 first, species-major order reaction 4 on species 2
    net = random_cfstr(random.Random(24), max_species=4, max_nonflow=5, max_coeff=2)
    sen = cfstr_injectivity(net).negative_sen
    assert (sen.reaction_indices, sen.species_indices) == ((3,), (3,))


def reference_minors(net):
    """The index-pair minors scan: (status, sign) of a species-major walk
    over every rank-size (species, reactions) pair of index subsets."""
    data = stoich(net)
    k = data.rank
    first = None
    for species_subset in itertools.combinations(range(net.num_species), k):
        for rxn_subset in itertools.combinations(range(net.num_reactions), k):
            d1 = det_int([[data.stoich_matrix[i][j] for j in rxn_subset] for i in species_subset])
            d2 = det_int([[data.reactant_matrix[j][i] for i in species_subset] for j in rxn_subset])
            value = d1 * d2
            if value == 0:
                continue
            if first is None:
                first = value
            elif (value > 0) != (first > 0):
                return "not-injective", None
    if first is None:
        return "degenerate", None
    return "injective", 1 if first > 0 else -1


@property_settings
@given(seeds)
def test_minors_on_the_sen_stream_match_the_index_pair_scan(seed):
    base = random_network(random.Random(seed), max_species=4, max_reactions=5, max_coeff=2)
    for net in (base, fully_open_extension(base)):
        report = injectivity_minors(net)
        assert (report.status, report.sign) == reference_minors(net)


def test_scan_holds_no_stream_for_a_subset_that_cannot_yield():
    # X1 -> X9, ..., X8 -> X16: of the C(16, 8) = 12,870 species subsets
    # only the 2^8 that take one species of each reaction have 8 nontrivial
    # restrictions, and each of them holds one SEN; a primed stream per
    # subset peaks near 5 MiB here
    net = parse_network("\n".join(f"X{i} -> X{i + 8}" for i in range(1, 9)))
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_sens(net, (8,)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 256
    assert peak < 2 * 2**20


def test_scan_with_too_many_species_subsets_is_refused_before_any_restriction(monkeypatch):
    # a cycle of 16 species, k = 8: C(16, 8) = 12,870 species subsets; size 1
    # comes first, with its 16 subsets and the 2 reactions that meet each
    net = parse_network("\n".join(f"X{i} -> X{i % 16 + 1}" for i in range(1, 17)))
    calls = []

    def counting(*args):
        calls.append(args)
        return restrict_reaction(*args)

    monkeypatch.setattr("crnmss.embedding.restrict_reaction", counting)
    monkeypatch.setattr("crnmss.embedding.WORK_LIMIT", 1000)
    got = []
    with pytest.raises(LimitExceeded, match="work bound 1000$"):
        for sen in enumerate_sens(net, (1, 8)):
            got.append(sen)
    assert len(got) == len(calls) == 32
    assert {len(sen.reactions) for sen in got} == {1}
