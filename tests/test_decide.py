"""Tests for the decision layer: theorems, injectivity routes, pipeline."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnmss.decide import (
    INCONCLUSIVE,
    MULTISTATIONARY,
    NO_POSITIVE_STEADY_STATES,
    NOT_MULTISTATIONARY,
    STAGES,
    LimitExceeded,
    Verdict,
    _numeric_stage,
    _positive_dependence_stage,
    analyze,
    atom_db_matches,
    atom_db_search,
    cfstr_injectivity,
    check_deficiency_one,
    check_deficiency_zero,
    classify_one_nonflow_fully_open,
    det_opt_condition,
    determinant_optimization,
    injectivity_minors,
    network_facts,
    positive_dependence,
)
from crnmss.cli import main
from crnmss.embedding import (
    SquareEmbeddedNetwork,
    find_embedding,
    fully_open_extension,
    is_cfstr,
    is_fully_open,
    orientation,
)
from crnmss.families import FamilySpec, generate, load_atom, load_atoms
from crnmss.network import Complex, Reaction, ReactionNetwork, parse_network, render_network
from crnmss.structure import deficiency, stoich
from helpers import injectivity_signvectors, random_cfstr, random_network

seeds = st.integers(min_value=0, max_value=2**32 - 1)
property_settings = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def k_tilde(m, n):
    return fully_open_extension(generate(FamilySpec("K", m, n)))


def facts_of(text_or_net):
    net = parse_network(text_or_net) if isinstance(text_or_net, str) else text_or_net
    return network_facts(net)


def test_deficiency_zero_weakly_reversible():
    v = check_deficiency_zero(facts_of("A <-> B"))
    assert v is not None
    assert v.status == NOT_MULTISTATIONARY
    assert v.certificate["kind"] == "deficiency-zero"
    assert v.certificate["weakly_reversible"] is True


def test_deficiency_zero_not_weakly_reversible():
    v = check_deficiency_zero(facts_of("A -> B"))
    assert v is not None
    assert v.status == NO_POSITIVE_STEADY_STATES


def test_deficiency_zero_inapplicable_or_positive():
    assert not isinstance(check_deficiency_zero(facts_of("A -> B\nA -> C")), Verdict)
    assert not isinstance(check_deficiency_zero(facts_of(generate(FamilySpec("G", 2, 3)))), Verdict)


def test_deficiency_one():
    v = check_deficiency_one(facts_of("2 A -> 3 A\n3 A -> 4 A\n0 <-> B"))
    assert v is not None
    assert v.status == NOT_MULTISTATIONARY
    assert v.certificate == {
        "kind": "deficiency-one",
        "deficiency": 1,
        "per_class": [1, 0],
    }
    # covers deficiency zero as the degenerate case
    assert isinstance(check_deficiency_one(facts_of("A <-> B")), Verdict)
    # class deficiencies (0, 0) do not reach the total of 1
    assert not isinstance(check_deficiency_one(facts_of(generate(FamilySpec("G", 2, 3)))), Verdict)
    # single class of deficiency 2
    assert not isinstance(check_deficiency_one(facts_of("0 -> A\nA -> 2 A\n2 A -> 3 A")), Verdict)
    # inapplicable network
    assert not isinstance(check_deficiency_one(facts_of("A -> B\nA -> C")), Verdict)


def test_injectivity_minors_injective():
    rep = injectivity_minors(k_tilde(1, 2))
    assert rep.injective
    assert rep.sign in (-1, 1)


def test_injectivity_minors_conflict():
    rep = injectivity_minors(load_atom(6))
    assert rep.status == "not-injective"
    assert not rep.injective
    assert rep.sign is None


def test_injectivity_minors_degenerate():
    rep = injectivity_minors(parse_network("0 -> A"))
    assert rep.status == "degenerate"
    assert not rep.injective


def test_injectivity_signvectors_basic():
    assert injectivity_signvectors(k_tilde(1, 2)).injective
    rep = injectivity_signvectors(load_atom(6))
    assert rep.status == "not-injective"
    # the constant-map degenerate case: zero common sign vector
    rep = injectivity_signvectors(parse_network("0 -> A"))
    assert rep.status == "not-injective"


def test_injectivity_signvectors_size_limit(monkeypatch):
    # 6 species and 1 reaction: 3^7 = 2,187 pairs of sign patterns
    net = parse_network("A + B + C + D + E + F -> 0")
    monkeypatch.setattr("crnmss.embedding.WORK_LIMIT", 2186)
    with pytest.raises(LimitExceeded, match="2187 sign pattern pairs exceed the work bound 2186$"):
        injectivity_signvectors(net)
    monkeypatch.setattr("crnmss.embedding.WORK_LIMIT", 2187)
    assert injectivity_signvectors(net).injective


def test_injectivity_routes_agree_on_random_networks():
    rng = random.Random(91)
    for _ in range(40):
        net = random_network(rng, max_species=3, max_reactions=3)
        assert injectivity_minors(net).injective == injectivity_signvectors(net).injective


def test_cfstr_injectivity():
    with pytest.raises(ValueError):
        cfstr_injectivity(parse_network("A -> B"))
    rep = cfstr_injectivity(k_tilde(2, 4))
    assert rep.injective
    rep = cfstr_injectivity(k_tilde(2, 3))
    assert rep.status == "not-injective"
    assert rep.negative_sen is not None
    assert len(rep.negative_sen.species_indices) == 3


def test_cfstr_injectivity_agrees_with_minors():
    rng = random.Random(92)
    for _ in range(30):
        net = random_cfstr(rng, max_species=3, max_nonflow=3)
        assert cfstr_injectivity(net).injective == injectivity_minors(net).injective


def test_positive_dependence():
    assert positive_dependence(parse_network("A -> B")) is None
    alpha = positive_dependence(parse_network("A <-> B"))
    assert alpha is not None
    assert all(a >= 1 for a in alpha)
    assert alpha[0] == alpha[1]
    assert positive_dependence(k_tilde(2, 3)) is not None


HOLDS = "positive dependence holds"


def dependence_stage(net):
    return _positive_dependence_stage(net, network_facts(net))


def reversible_closure(net):
    reactions = list(net.reactions)
    for rxn in net.reactions:
        reverse = Reaction(rxn.product, rxn.reactant)
        if reverse not in reactions:
            reactions.append(reverse)
    return ReactionNetwork(net.species, tuple(reactions))


def fully_open_dependence(net):
    """alpha = 1 on every reaction but the unit flows, whose rates then
    cancel the net change d: outflow 1 + max(0, d_i), inflow outflow - d_i."""
    zero = Complex(())
    unit_flows = {}
    for i in range(net.num_species):
        mono = Complex.of({i: 1})
        unit_flows[Reaction(mono, zero)] = (i, False)
        unit_flows[Reaction(zero, mono)] = (i, True)
    gamma = stoich(net).stoich_matrix
    others = [j for j, rxn in enumerate(net.reactions) if rxn not in unit_flows]
    d = [sum(row[j] for j in others) for row in gamma]
    alpha = []
    for rxn in net.reactions:
        if rxn not in unit_flows:
            alpha.append(1)
            continue
        i, inflow = unit_flows[rxn]
        outflow = 1 + max(0, d[i])
        alpha.append(outflow - d[i] if inflow else outflow)
    return alpha, gamma


@property_settings
@given(seeds)
def test_positive_dependence_stage_agrees_with_the_lp(seed):
    net = random_network(random.Random(seed))
    opened = fully_open_extension(net)
    for source in (net, opened, reversible_closure(net)):
        outcome = dependence_stage(source)
        if positive_dependence(source) is not None:
            assert outcome == HOLDS
        else:
            assert outcome.status == NO_POSITIVE_STEADY_STATES
            assert outcome.certificate == {"kind": "positive-dependence-failure"}
    alpha, gamma = fully_open_dependence(opened)
    assert min(alpha) >= 1
    assert all(sum(g * a for g, a in zip(row, alpha)) == 0 for row in gamma)


@property_settings
@given(seeds)
def test_deficiency_zero_networks_are_positively_dependent_iff_weakly_reversible(seed):
    # Gamma alpha = Y I_a alpha, and deficiency zero makes Y injective on
    # the image of the incidence matrix I_a, so Gamma alpha = 0 forces
    # I_a alpha = 0: a positive alpha is a positive circulation on the
    # reaction graph, which exists iff the network is weakly reversible.
    # So with the default stage order the positive-dependence stage has
    # already concluded on every network that would reach the
    # NO_POSITIVE_STEADY_STATES branch of check_deficiency_zero.
    net = random_network(random.Random(seed))
    for source in (net, fully_open_extension(net), reversible_closure(net)):
        report = network_facts(source).deficiency
        if report.applicable and report.total == 0:
            assert (positive_dependence(source) is not None) == report.weakly_reversible


def test_positive_dependence_stage_reads_only_nonzero_rows():
    # A is only a catalyst: its zero row rules nothing out
    catalyst = parse_network("A + B -> A + C\nC -> B")
    assert not any(stoich(catalyst).stoich_matrix[0])
    assert positive_dependence(catalyst) is not None
    assert dependence_stage(catalyst) == HOLDS
    # one-signed rows, also in a CFSTR network that is not fully open
    for text in ("A -> B", "A -> 0"):
        assert positive_dependence(parse_network(text)) is None
        outcome = dependence_stage(parse_network(text))
        assert outcome.certificate == {"kind": "positive-dependence-failure"}
    facts = facts_of("A -> 0")
    assert facts.cfstr and not facts.fully_open


def test_structure_decides_positive_dependence_without_the_lp(monkeypatch, tmp_path, capsys):
    import crnmss.decide

    def refuse(*args):
        raise AssertionError("the positive-dependence LP ran")

    monkeypatch.setattr(crnmss.decide, "positive_dependence", refuse)
    cycle = parse_network("A + B <-> C\nC -> D\nD -> A + B")
    facts = network_facts(cycle)
    assert facts.deficiency.weakly_reversible and not facts.fully_open
    for net in [k_tilde(2, 3), cycle] + [atom for _, atom in load_atoms()]:
        assert analyze(net).verdict.status != INCONCLUSIVE
    # one nonpositive row, and no nonnegative one
    assert analyze(parse_network("A -> 0")).verdict.status == NO_POSITIVE_STEADY_STATES
    # no strictly signed row, but the one-signed rows A (-1, 0) and D (0, 1)
    gain = parse_network("A -> B\nB + C -> C + D")
    assert stoich(gain).stoich_matrix == ((-1, 0), (1, -1), (0, 0), (0, 1))
    assert dependence_stage(gain).certificate == {"kind": "positive-dependence-failure"}
    path = tmp_path / "net.txt"
    path.write_text("A -> B\n")
    assert main(["check", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"]["certificate"] == {"kind": "positive-dependence-failure"}


def test_one_reaction_classification():
    assert classify_one_nonflow_fully_open((2,), (3,)).multistationary
    assert classify_one_nonflow_fully_open((2,), (3,)).forward_sum == 2
    assert not classify_one_nonflow_fully_open((1,), (2,)).multistationary
    assert not classify_one_nonflow_fully_open((3,), (2,)).multistationary
    assert not classify_one_nonflow_fully_open((1, 1), (2, 0)).multistationary
    assert classify_one_nonflow_fully_open((1, 1), (2, 2)).multistationary
    # reversible uses the mirrored sum as well
    assert not classify_one_nonflow_fully_open((3,), (2,)).multistationary
    cls = classify_one_nonflow_fully_open((3,), (2,), reversible=True)
    assert cls.multistationary and cls.backward_sum == 2
    with pytest.raises(ValueError):
        classify_one_nonflow_fully_open((1,), (1,))
    with pytest.raises(ValueError):
        classify_one_nonflow_fully_open((1, 0), (1,))
    with pytest.raises(ValueError):
        classify_one_nonflow_fully_open((-1,), (1,))


def test_determinant_optimization_sequestration():
    cert = determinant_optimization(k_tilde(2, 3))
    assert cert is not None
    assert cert.orientation < 0
    assert cert.eta == (1, 1, 3)
    assert det_opt_condition(cert.sen, cert.eta)
    # scale invariance: doubling eta still satisfies the exact condition
    assert det_opt_condition(cert.sen, tuple(2 * e for e in cert.eta))
    assert not det_opt_condition(cert.sen, (1, 1, 1))  # species 3 total is negative
    assert not det_opt_condition(cert.sen, (1, 1, 2))  # totals (2, 3, 0): zero is not positive
    assert not det_opt_condition(cert.sen, (0, 1, 3))
    assert determinant_optimization(k_tilde(2, 4)) is None
    with pytest.raises(ValueError):
        determinant_optimization(parse_network("A -> B"))


def whole_sen(text):
    """The network as a SEN of itself: every reaction on every species."""
    net = parse_network(text)
    return SquareEmbeddedNetwork(
        net, tuple(range(net.num_reactions)), tuple(range(net.num_species)), net.reactions
    )


def test_det_opt_condition_rejects_a_wrong_length_and_an_orientation_not_negative():
    # certificate checkers rebuild the SEN and eta from a report, so each
    # rejection must hold on its own: every other condition is met here
    cert = determinant_optimization(k_tilde(2, 3))
    assert not det_opt_condition(cert.sen, cert.eta + (1,))  # zip would drop the 1
    assert not det_opt_condition(cert.sen, cert.eta[:-1])
    # orientation 2 * 1 > 0, and eta = 1 gives species A the total 1
    positive = whole_sen("2 A -> A")
    assert orientation(positive) == 2
    assert not det_opt_condition(positive, (1,))
    # singular reactant matrix: orientation 0, and eta = (1, 1) totals (3, 2)
    zero = whole_sen("A + B -> 0\n2 A + 2 B -> B")
    assert orientation(zero) == 0
    assert not det_opt_condition(zero, (1, 1))


# Fully open networks of the seed-0 atlas benchmark corpus (open6-26,
# rand4-014-open, open6-34) whose eta is not the all-ones-and-(m + 1) of
# K(m, n): each eta is the point where the simplex's pivot path stops.
# Posing the unit rows of the det-opt LP first, or entering Bland's last
# negative column instead of the first, moves the eta of open6-34.
PIVOT_PATH_ETA = [
    (
        "S1 + 2 S3 -> 3 S1 + 2 S2 + 3 S3\n"
        "2 S2 + 3 S3 -> 3 S1 + S2 + S3\n"
        "2 S2 + 3 S3 -> 3 S1 + S2 + 3 S3\n"
        "S1 + 3 S2 -> 3 S2\n"
        "3 S1 + S2 -> S1 + S2 + S3\n"
        "0 -> S1\nS1 -> 0\n0 -> S3\nS3 -> 0\n0 -> S2\nS2 -> 0",
        (0, 1, 4), -30, (1, 7, 12),
    ),
    (
        "2 S1 + 2 S2 -> 2 S3\n"
        "2 S2 + 2 S3 -> S2\n"
        "S1 -> 2 S1\n"
        "2 S2 -> S1 + 2 S3\n"
        "0 -> S1\nS1 -> 0\n0 -> S2\nS2 -> 0\n0 -> S3\nS3 -> 0",
        (0, 1, 2), -24, (1, Fraction(3, 2), 1),
    ),
    (
        "3 S1 + S2 + 2 S3 + 2 S4 + 2 S5 -> 3 S1 + 3 S2 + 2 S3 + 2 S4 + 2 S5\n"
        "S1 + S2 + S3 + 3 S4 + 2 S5 -> 2 S2 + 3 S3 + 2 S4 + S5\n"
        "3 S3 + S4 + S5 -> 3 S1 + 2 S2 + S3 + 3 S5\n"
        "3 S1 + 3 S2 + 3 S3 + 2 S4 -> S1 + S2 + 3 S4 + S5\n"
        "3 S2 + 2 S3 + S4 -> 3 S1 + 3 S3 + 2 S4\n"
        "S1 + 2 S2 + 3 S3 + 3 S4 + 2 S5 -> 2 S4 + 3 S5\n"
        "0 -> S1\nS1 -> 0\n0 -> S2\nS2 -> 0\n0 -> S3\nS3 -> 0\n0 -> S4\nS4 -> 0\n0 -> S5\nS5 -> 0",
        (0, 1, 2, 3, 4), -890, (1, 9, 1, 6, 1),
    ),
]


@pytest.mark.parametrize("text, reaction_indices, sign, eta", PIVOT_PATH_ETA)
def test_determinant_optimization_eta_follows_the_pivot_path(text, reaction_indices, sign, eta):
    cert = determinant_optimization(parse_network(text))
    assert cert.sen.reaction_indices == reaction_indices
    assert cert.orientation == sign
    assert cert.eta == eta


def test_determinant_optimization_needs_all_species_in_nonflow_part():
    net = parse_network("0 <-> X1\n0 <-> X2\n2 X1 -> 3 X1")
    assert determinant_optimization(net) is None


def test_atom_db_search():
    match = atom_db_search(load_atom(7))
    assert match is not None
    assert match.atom_id == "2rxn-7"
    assert match.witness.species_map == (0, 1)
    j = match.to_json()
    assert j["atom"] == "2rxn-7"
    assert "A -> A + B" in j["atom_network"]
    # no atom fits in a monomolecular network
    assert atom_db_search(fully_open_extension(parse_network("A <-> B"))) is None
    assert list(atom_db_matches(fully_open_extension(parse_network("A <-> B")))) == []


def full_atom_database(max_coeff):
    """Every atom and every G(m,n) and H(m,n) up to ``max_coeff``, in
    database order."""
    for idx in range(1, 12):
        yield f"2rxn-{idx}", load_atom(idx)
    for m in range(2, max_coeff + 1):
        for n in range(m + 1, max_coeff + 1):
            yield f"G({m},{n})", generate(FamilySpec("G", m, n))
    for m in range(2, max_coeff + 1):
        for n in range(2, max_coeff + 1):
            yield f"H({m},{n})", generate(FamilySpec("H", m, n))


def test_atom_db_matches_equal_the_full_database_search():
    nets = [load_atom(idx) for idx in range(1, 12)]
    nets += [
        generate(FamilySpec(family, m, n))
        for family in ("G", "Gbar", "H")
        for m in range(1, 6)
        for n in range(1, 6)
        if m != n or (family == "H" and m > 1)
    ]
    rng = random.Random(61)
    nets += [fully_open_extension(random_network(rng, max_coeff=4)) for _ in range(120)]
    total = 0
    for net in nets:
        expected = []
        max_coeff = max(c for rxn in net.reactions for cpx in rxn.complexes() for _, c in cpx)
        for atom_id, atom in full_atom_database(max_coeff):
            witness = find_embedding(atom, net)
            if witness is not None:
                expected.append((atom_id, witness))
        got = [(match.atom_id, match.witness) for match in atom_db_matches(net)]
        assert got == expected, render_network(net)
        total += len(got)
    assert total > 100


def test_atom_search_work_does_not_grow_with_coefficients(monkeypatch):
    import crnmss.decide

    calls = []

    def counting(pattern, host):
        calls.append(pattern)
        return find_embedding(pattern, host)

    monkeypatch.setattr(crnmss.decide, "find_embedding", counting)
    net = parse_network(
        "0 <-> A\n0 <-> B\n0 <-> C\n2 A <-> A + B\nA + C <-> B + C\nC -> 60 C + A"
    )
    list(atom_db_matches(net))
    # the 11 atoms; no reaction restricts to a G or H non-flow reaction,
    # where trying every member up to coefficient 60 would make 5,203 calls
    assert len(calls) == 11


def test_analyze_deficiency_routes():
    res = analyze(parse_network("A <-> B"))
    assert res.verdict.status == NOT_MULTISTATIONARY
    assert res.verdict.certificate["kind"] == "deficiency-zero"
    assert "positive dependence holds" in res.verdict.notes

    res = analyze(parse_network("A -> B"))
    assert res.verdict.status == NO_POSITIVE_STEADY_STATES
    assert res.verdict.certificate["kind"] == "positive-dependence-failure"

    # reversible triangle on {2A, A+B, 2B}: p=3, l=1, rank 1, deficiency 1
    res = analyze(parse_network("2 A <-> A + B\nA + B <-> 2 B\n2 A <-> 2 B"))
    assert res.verdict.status == NOT_MULTISTATIONARY
    assert res.verdict.certificate["kind"] == "deficiency-one"
    assert res.verdict.certificate["per_class"] == [1]


def test_analyze_injectivity_and_one_reaction():
    res = analyze(fully_open_extension(generate(FamilySpec("G", 3, 2))))
    assert res.verdict.status == NOT_MULTISTATIONARY
    assert res.verdict.certificate["kind"] == "injectivity-cfstr"

    res = analyze(generate(FamilySpec("G", 2, 3)))
    assert res.verdict.status == MULTISTATIONARY
    assert res.verdict.certificate["kind"] == "one-reaction-formula"
    assert res.verdict.certificate["forward_sum"] == 2

    res = analyze(generate(FamilySpec("Gbar", 3, 2)))
    assert res.verdict.status == MULTISTATIONARY
    assert res.verdict.certificate["kind"] == "one-reaction-formula"
    assert res.verdict.certificate["backward_sum"] == 2


def test_analyze_det_opt_and_atoms():
    res = analyze(k_tilde(2, 3))
    assert res.verdict.status == MULTISTATIONARY
    assert res.verdict.certificate["kind"] == "det-opt"
    assert res.verdict.certificate["eta"] == ["1", "1", "3"]

    res = analyze(k_tilde(2, 4))
    assert res.verdict.status == NOT_MULTISTATIONARY
    assert res.verdict.certificate["kind"] == "injectivity-cfstr"

    res = analyze(load_atom(11))
    assert res.verdict.status == MULTISTATIONARY
    assert res.verdict.certificate["kind"] == "atom-embedding"
    assert res.verdict.certificate["atom"] == "2rxn-11"


def test_analyze_minors_verdict_and_degenerate_note():
    # atlas case rand4-053: not a CFSTR, every minor product is negative
    res = analyze(parse_network("0 -> 2 S2\n2 S2 + 2 S1 -> S2 + 2 S1"))
    assert res.verdict.status == NOT_MULTISTATIONARY
    assert res.verdict.certificate == {"kind": "injectivity-minors", "sign": -1}

    text = (
        "2 S2 -> S1 + S2 + 2 S3\n2 S1 + 2 S2 + 2 S3 -> 2 S1 + S2\n"
        "S1 + S3 -> S2\nS1 + S2 + S3 -> 2 S1 + 2 S2"
    )
    res = analyze(parse_network(text))
    assert res.verdict.status == INCONCLUSIVE
    assert (
        "injectivity degenerate: every rank-size minor product vanishes; "
        "treated as not injective"
    ) in res.verdict.notes


def test_analyze_det_opt_certifies_only_the_fully_open_extension():
    text = "2 S1 + 2 S2 -> S2\n0 -> S2\n2 S1 + S2 -> S2\nS2 -> S1 + 2 S2\nS1 -> 0\nS2 -> 0"
    net = parse_network(text)
    res = analyze(net)
    assert res.verdict.status == INCONCLUSIVE
    assert (
        "determinant optimization certifies the fully open extension "
        "is multistationary (network itself is not fully open)"
    ) in res.verdict.notes
    res = analyze(fully_open_extension(net))
    assert res.verdict.status == MULTISTATIONARY
    assert res.verdict.certificate["kind"] == "det-opt"


def test_analyze_inconclusive_and_stage_control():
    net = k_tilde(2, 3)
    note = STAGES["injectivity"](net, network_facts(net))
    assert note.startswith("injectivity fails")
    # the note of a silent stage reaches the verdict of a later stage
    assert note in analyze(net).verdict.notes


def test_analyze_numeric_stage():
    net = load_atom(1)
    res = _numeric_stage(net, network_facts(net), 10000, 0)
    assert res.verdict.status == MULTISTATIONARY
    assert res.verdict.certificate["kind"] == "numeric-witness"
    assert res.verdict.certificate["nondegenerate_states"] >= 2
    assert res.witness is not None


def test_network_facts_match_structure_functions():
    rng = random.Random(93)
    for _ in range(50):
        net = random_network(rng)
        facts = network_facts(net)
        assert facts.deficiency == deficiency(net)
        assert facts.cfstr == is_cfstr(net)
        assert facts.fully_open == is_fully_open(net)


def test_check_computes_deficiency_once(tmp_path, monkeypatch, capsys):
    import crnmss.decide

    calls = []

    def counting(net):
        calls.append(net)
        return deficiency(net)

    monkeypatch.setattr(crnmss.decide, "deficiency", counting)
    # runs every stage up to det-opt, leaving notes on the way
    path = tmp_path / "net.txt"
    path.write_text(render_network(k_tilde(2, 3)) + "\n")
    assert main(["check", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"]["certificate"]["kind"] == "det-opt"
    assert len(calls) == 1


def test_verdict_to_json():
    v = Verdict(NOT_MULTISTATIONARY, {"kind": "deficiency-zero", "x": "1/2"}, ("n",))
    j = v.to_json()
    assert j == {
        "status": NOT_MULTISTATIONARY,
        "certificate": {"kind": "deficiency-zero", "x": "1/2"},
        "notes": ["n"],
    }
