"""Embedding-lift soundness: if N is embedded in a fully open G and N is
multistationary, so is G (Joshi & Shiu).  So no exact verdict may call G
NOT_MULTISTATIONARY or NO_POSITIVE_STEADY_STATES while an N embedded in
it is MULTISTATIONARY.  Unlike the cross-stage oracle, which compares the
stages on one network, this one compares verdicts across the embedding
relation, so it catches a stage that is wrong on one network of a pair
only.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from crnmss.decide import MULTISTATIONARY, NO_POSITIVE_STEADY_STATES, NOT_MULTISTATIONARY, analyze
from crnmss.embedding import embedded_network, fully_open_extension
from crnmss.network import render_network
from helpers import random_network

AT_MOST_ONE_STATE = (NOT_MULTISTATIONARY, NO_POSITIVE_STEADY_STATES)


def one_step_embedded(net):
    """The networks embedded in ``net`` by removing one reaction or one species."""
    for j in range(net.num_reactions):
        yield embedded_network(net, reactions=[j])
    for i in range(net.num_species):
        yield embedded_network(net, species=[i])


def test_no_verdict_denies_what_an_embedded_network_lifts():
    lifted = []

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    # host 3 S1 -> 2 S1, 2 S1 -> 3 S1: its fully open extension is
    # multistationary only by the reversible clause of the one-reaction
    # formula, and it holds 0 <-> S1, 2 S1 -> 3 S1.  Only about one seed
    # in 1,800 draws a host of that kind
    @example(231)
    def check(seed):
        host = random_network(random.Random(seed), max_species=5, max_reactions=5, max_coeff=3)
        g = fully_open_extension(host)
        status = analyze(g).verdict.status
        for embedded in one_step_embedded(host):
            n = fully_open_extension(embedded)
            if n.num_reactions == 0:
                continue
            if analyze(n).verdict.status == MULTISTATIONARY:
                lifted.append(seed)
                assert status not in AT_MOST_ONE_STATE, (render_network(g), render_network(n))

    check()
    # many embedded networks are multistationary, so the check is not vacuous
    assert len(lifted) > 100
