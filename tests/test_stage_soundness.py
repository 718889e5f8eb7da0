"""Cross-stage soundness: the exact stages apply different theorems to one
network, so no two of them may conclude opposite answers, and every
certificate they emit re-checks on its own.

``analyze`` stops at the first conclusive stage, so here every stage runs
on every network.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from crnmss.decide import (
    MULTISTATIONARY,
    NO_POSITIVE_STEADY_STATES,
    NOT_MULTISTATIONARY,
    STAGES,
    Verdict,
    det_opt_condition,
    orientation,
)
from crnmss.embedding import (
    EmbeddingWitness,
    SquareEmbeddedNetwork,
    fully_open_extension,
    non_flow_subnetwork,
    restrict_reaction,
    verify_embedding,
)
from crnmss.families import FamilySpec, generate
from crnmss.network import parse_network, render_network, render_reaction
from crnmss.structure import deficiency
from helpers import random_network

AT_MOST_ONE_STATE = (NOT_MULTISTATIONARY, NO_POSITIVE_STEADY_STATES)


def det_opt_sen(net, cert) -> SquareEmbeddedNetwork:
    """The SEN a det-opt certificate names: its reaction indices point into
    the non-flow subnetwork, and its species are named."""
    host = non_flow_subnetwork(net)
    index = {name: i for i, name in enumerate(host.species)}
    species = tuple(sorted(index[name] for name in cert["species"]))
    chosen = tuple(cert["reaction_indices"])
    reactions = tuple(restrict_reaction(host.reactions[j], species) for j in chosen)
    assert None not in reactions
    assert [render_reaction(r, host.species) for r in reactions] == cert["reactions"]
    return SquareEmbeddedNetwork(host, chosen, species, reactions)


def check_certificate(net, cert: dict) -> None:
    if cert["kind"] == "atom-embedding":
        witness = EmbeddingWitness(tuple(cert["species_map"]), tuple(cert["reaction_map"]))
        assert verify_embedding(parse_network(cert["atom_network"]), net, witness)
    elif cert["kind"] == "det-opt":
        sen = det_opt_sen(net, cert)
        assert orientation(sen) == cert["orientation"]
        assert det_opt_condition(sen, [Fraction(e) for e in cert["eta"]])


def stage_verdicts(net) -> dict[str, Verdict]:
    """Every stage's verdict on ``net``, by stage name; silent stages are
    left out."""
    report = deficiency(net)
    verdicts = {}
    for name, stage in STAGES.items():
        outcome = stage(net, report)
        if isinstance(outcome, Verdict):
            verdicts[name] = outcome
    return verdicts


def assert_stages_agree(net) -> set[str]:
    """Fail on a conflict or on a certificate that does not re-check;
    return the statuses concluded."""
    verdicts = stage_verdicts(net)
    multi = [name for name, v in verdicts.items() if v.status == MULTISTATIONARY]
    single = [name for name, v in verdicts.items() if v.status in AT_MOST_ONE_STATE]
    assert not (multi and single), (render_network(net), multi, single)
    for verdict in verdicts.values():
        check_certificate(net, verdict.certificate)
    return {v.status for v in verdicts.values()}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_no_two_stages_conflict_on_random_networks(seed):
    base = random_network(random.Random(seed), max_species=4, max_reactions=4)
    for net in (base, fully_open_extension(base)):
        assert_stages_agree(net)


def family_members():
    for k in range(1, 12):
        yield FamilySpec("atom-2rxn", k)
    for m in range(1, 5):
        for n in range(1, 5):
            if m != n:
                yield FamilySpec("G", m, n)
                yield FamilySpec("Gbar", m, n)
            if (m, n) != (1, 1):
                yield FamilySpec("H", m, n)
    for m in range(1, 4):
        for n in range(2, 7):
            yield FamilySpec("K", m, n)


def test_no_two_stages_conflict_on_family_members():
    concluded = set()
    for spec in family_members():
        net = generate(spec)
        for case in (net, fully_open_extension(net)):
            concluded |= assert_stages_agree(case)
    # both sides of the question are reached, so the check is not vacuous
    assert MULTISTATIONARY in concluded
    assert concluded & set(AT_MOST_ONE_STATE)
