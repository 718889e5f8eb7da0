"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single
"criterion N: PASS" or "criterion N: FAIL" line (visible because -s is the
configured default).  Networks examined along the way register their
computed verdicts, injectivity findings, and witness state counts in
REGISTRY; the final criterion cross-checks those facts for soundness.
"""

import contextlib
import random
from fractions import Fraction

from crnmss.decide import (
    INCONCLUSIVE,
    MULTISTATIONARY,
    NOT_MULTISTATIONARY,
    analyze,
    atom_db_matches,
    cfstr_injectivity,
    classify_one_nonflow_fully_open,
    det_opt_condition,
    determinant_optimization,
    injectivity_minors,
)
from crnmss.embedding import (
    embedded_network,
    enumerate_sens,
    find_embedding,
    fully_open_extension,
    orientation,
    sen_is_relevant,
)
from crnmss.families import FamilySpec, generate, load_atom
from crnmss.network import parse_network
from crnmss.structure import deficiency, stoich
from crnmss.witness import rate_search, witness_search

from helpers import (
    injectivity_signvectors,
    random_cfstr,
    random_network,
    random_open_monomolecular,
)
from unipoly import (
    family_polynomial,
    positive_root_count,
    stable_positive_root_count,
    multistable_rates,
    two_root_rates,
)

REGISTRY: list[dict] = []


def register(name, *, status=None, injective=None, witness_states=None):
    REGISTRY.append(
        {
            "name": name,
            "status": status,
            "injective": injective,
            "witness_states": witness_states,
        }
    )


@contextlib.contextmanager
def criterion(number):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL")
        raise
    print(f"criterion {number}: PASS")


def test_criterion_1_introductory_regressions():
    with criterion(1):
        net1 = parse_network("0 <-> A\n0 <-> B\n3 A + B -> 2 A + 2 B")
        rep1 = deficiency(net1)
        assert rep1.total == 1
        assert rep1.per_class == (0, 0)
        inj1 = cfstr_injectivity(net1)
        assert not inj1.injective
        assert injectivity_minors(net1).injective is False
        res1 = analyze(net1)
        register("intro-1", status=res1.verdict.status, injective=False)

        net2 = parse_network(
            "0 <-> A\n0 <-> B\n0 <-> C\n2 A <-> A + B\nA + C <-> B + C"
        )
        rep2 = deficiency(net2)
        assert rep2.total == 2
        inj2 = cfstr_injectivity(net2)
        assert not inj2.injective
        assert list(atom_db_matches(net2)) == []
        res2 = analyze(net2)
        assert res2.verdict.status == INCONCLUSIVE
        register("intro-2", status=res2.verdict.status, injective=False)

        net3 = parse_network(
            "0 <-> A\n0 <-> B\n0 <-> C\n2 A <-> A + B\nA + B <-> B + C"
        )
        res3 = analyze(net3)
        assert res3.verdict.status == MULTISTATIONARY
        assert res3.verdict.certificate["kind"] == "atom-embedding"
        assert not cfstr_injectivity(net3).injective
        register("intro-3", status=MULTISTATIONARY, injective=False)


def test_criterion_2_one_reaction_classification():
    with criterion(2):
        rng = random.Random(2)
        for m in range(1, 7):
            for n in range(1, 7):
                if m == n:
                    continue
                cls = classify_one_nonflow_fully_open((m,), (n,))
                best = 0
                for _ in range(1000):
                    kappa = tuple(
                        Fraction(rng.randint(1, 99), rng.randint(1, 99))
                        for _ in range(3)
                    )
                    count, _ = positive_root_count(
                        family_polynomial("G", m, n, kappa)
                    )
                    best = max(best, count)
                    if cls.multistationary and best >= 2:
                        break
                if cls.multistationary:
                    if best < 2:
                        count, simple = positive_root_count(
                            family_polynomial("G", m, n, two_root_rates(m, n))
                        )
                        assert count == 2 and simple, (m, n)
                else:
                    assert best <= 1, (m, n, best)
                register(
                    f"one-species-{m}-{n}",
                    status=MULTISTATIONARY
                    if cls.multistationary
                    else NOT_MULTISTATIONARY,
                )


def test_criterion_3_sequestration_suite():
    with criterion(3):
        for m in range(1, 5):
            for n in range(2, 9):
                net = generate(FamilySpec("K", m, n))
                sen = next(iter(enumerate_sens(net, (n,))))
                got = orientation(sen)
                want = 1 + (-1) ** (n + 1) * (-m)
                assert (got > 0) is (want > 0), (m, n, got, want)
                assert (got < 0) is (want < 0), (m, n, got, want)

        for m in range(1, 5):
            for n in range(2, 7):
                net = generate(FamilySpec("K", m, n))
                for k in range(1, n):
                    for sen in enumerate_sens(net, (k,)):
                        assert not sen_is_relevant(sen)[0], (m, n, sen)

        for m in range(1, 4):
            for n in (2, 4, 6):
                open_net = fully_open_extension(generate(FamilySpec("K", m, n)))
                res = analyze(open_net)
                assert res.verdict.status == NOT_MULTISTATIONARY, (m, n)
                register(
                    f"seq-open-{m}-{n}",
                    status=res.verdict.status,
                    injective=cfstr_injectivity(open_net).injective,
                )

        for m in (2, 3):
            for n in (3, 5, 7):
                open_net = fully_open_extension(generate(FamilySpec("K", m, n)))
                cert = determinant_optimization(open_net)
                assert cert is not None, (m, n)
                closed_form = tuple([Fraction(1)] * (n - 1) + [Fraction(m + 1)])
                assert det_opt_condition(cert.sen, closed_form), (m, n)
                register(
                    f"seq-open-{m}-{n}",
                    status=MULTISTATIONARY,
                    injective=cfstr_injectivity(open_net).injective,
                )


def test_criterion_4_two_reaction_atoms():
    with criterion(4):
        for index in range(1, 12):
            atom = load_atom(index)
            rep = cfstr_injectivity(atom)
            assert not rep.injective, index
            assert rep.negative_sen is not None, index
            assert orientation(rep.negative_sen) < 0, index
            assert sen_is_relevant(rep.negative_sen)[0], index
            witness = rate_search(atom, budget=10000, seed=0)
            assert witness is not None, index
            assert witness.count_nondegenerate() >= 2, index
            register(
                f"2rxn-{index}",
                status=MULTISTATIONARY,
                injective=False,
                witness_states=len(witness.states),
            )


def test_criterion_5_multistability():
    with criterion(5):
        for m, n in ((2, 3), (3, 4)):
            kappa = multistable_rates(m, n)
            poly = family_polynomial("Gbar", m, n, kappa)
            count, simple = positive_root_count(poly)
            assert count == 3 and simple, (m, n)
            total, stable = stable_positive_root_count(poly)
            assert (total, stable) == (3, 2), (m, n)
            register(
                f"one-species-open-{m}-{n}",
                status=MULTISTATIONARY,
                witness_states=total,
            )


def test_criterion_6_injectivity_route_equivalence():
    with criterion(6):
        rng = random.Random(6)
        disagreements = 0
        for _ in range(200):
            net = random_network(rng, max_species=4, max_reactions=4, max_coeff=2)
            if (
                injectivity_minors(net).injective
                != injectivity_signvectors(net).injective
            ):
                disagreements += 1
        assert disagreements == 0

        for _ in range(100):
            net = random_cfstr(rng, max_species=4)
            if injectivity_minors(net).injective != cfstr_injectivity(net).injective:
                disagreements += 1
        assert disagreements == 0


def test_criterion_7_embedding_properties():
    with criterion(7):
        rng = random.Random(7)
        delta_checked = 0
        for pair_index in range(500):
            net = random_network(rng, max_species=4, max_reactions=4)
            if pair_index % 2 == 0 and net.num_reactions > 1:
                drop_reactions, drop_species = [rng.randrange(net.num_reactions)], []
            else:
                drop_reactions = [
                    i for i in range(net.num_reactions) if rng.random() < 0.4
                ]
                drop_species = [
                    i for i in range(net.num_species) if rng.random() < 0.3
                ]
                if len(drop_reactions) == net.num_reactions:
                    drop_reactions = drop_reactions[1:]
            removed = {"reactions": drop_reactions, "species": drop_species}
            sub = embedded_network(net, **removed)

            assert stoich(sub).rank <= stoich(net).rank, (net, removed)

            if not drop_species and len(drop_reactions) == 1:
                host_rep = deficiency(net)
                sub_rep = deficiency(sub)
                if host_rep.applicable and sub_rep.applicable:
                    delta_checked += 1
                    assert sub_rep.total in (host_rep.total, host_rep.total - 1), (
                        net,
                        removed,
                        host_rep.total,
                        sub_rep.total,
                    )

            if sub.num_reactions > 0:
                assert find_embedding(sub, net) is not None, (net, removed)
        assert delta_checked > 50


def test_criterion_8_deficiency_zero_uniqueness():
    with criterion(8):
        rng = random.Random(8)
        nets = [random_open_monomolecular(rng) for _ in range(50)]
        nets.append(fully_open_extension(parse_network("A <-> B")))
        for k, net in enumerate(nets):
            rep = deficiency(net)
            assert rep.weakly_reversible and rep.total == 0, k
            res = analyze(net)
            assert res.verdict.status == NOT_MULTISTATIONARY, k
            most_states = 0
            for _ in range(20):
                kappa = [
                    Fraction(rng.randint(1, 9), rng.randint(1, 9))
                    for _ in range(net.num_reactions)
                ]
                witness = witness_search(net, kappa)
                assert len(witness.states) == 1, (k, kappa, witness.states)
                most_states = max(most_states, len(witness.states))
            register(
                f"open-monomolecular-{k}",
                status=res.verdict.status,
                witness_states=most_states,
            )


def test_criterion_9_soundness():
    with criterion(9):
        assert REGISTRY, "earlier criteria must populate the registry"
        witness_checks = 0
        injectivity_checks = 0
        for entry in REGISTRY:
            if (
                entry["status"] == NOT_MULTISTATIONARY
                and entry["witness_states"] is not None
            ):
                witness_checks += 1
                assert entry["witness_states"] < 2, entry
            if entry["status"] == MULTISTATIONARY and entry["injective"] is not None:
                injectivity_checks += 1
                assert entry["injective"] is False, entry
        assert witness_checks >= 51
        assert injectivity_checks >= 12
