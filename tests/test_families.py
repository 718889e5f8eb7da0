"""Tests for the named families and the two-reaction atom corpus."""

import pytest

from crnmss.decide import MULTISTATIONARY, NOT_MULTISTATIONARY, analyze
from crnmss.embedding import fully_open_extension, is_fully_open, is_relevant
from crnmss.families import (
    NUM_ATOMS,
    FamilySpec,
    generate,
    load_atom,
    load_atoms,
)
from crnmss.network import render_network
from helpers import expected_verdict


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("Q", 1, 2)
    with pytest.raises(ValueError):
        FamilySpec("G", 2, 2)
    with pytest.raises(ValueError):
        FamilySpec("G", 0, 2)
    with pytest.raises(ValueError):
        FamilySpec("H", 1, 1)
    with pytest.raises(ValueError):
        FamilySpec("K", 2, 1)
    with pytest.raises(ValueError):
        FamilySpec("atom-2rxn", 12)
    FamilySpec("atom-2rxn", 11)
    FamilySpec("K", 1, 2)


def test_generate_g_and_gbar():
    g = generate(FamilySpec("G", 2, 3))
    assert render_network(g) == "0 -> A\nA -> 0\n2 A -> 3 A"
    assert is_fully_open(g)
    gbar = generate(FamilySpec("Gbar", 2, 3))
    assert render_network(gbar) == "0 -> A\nA -> 0\n2 A -> 3 A\n3 A -> 2 A"


def test_generate_h():
    h = generate(FamilySpec("H", 2, 2))
    assert h.species_names() == ("A", "B")
    assert is_fully_open(h)
    assert render_network(h).splitlines()[-1] == "A + B -> 2 A + 2 B"


def test_generate_k():
    k = generate(FamilySpec("K", 2, 3))
    assert k.species_names() == ("X1", "X2", "X3")
    assert render_network(k) == "X1 -> 2 X3\nX1 + X2 -> 0\nX2 + X3 -> 0"
    k2 = generate(FamilySpec("K", 1, 2))
    assert render_network(k2) == "X1 -> X2\nX1 + X2 -> 0"


def test_generate_builds_each_member_once():
    for family, m, n in (("G", 2, 3), ("H", 2, 2), ("K", 2, 3)):
        net = generate(FamilySpec(family, m, n))
        assert generate(FamilySpec(family, m, n)) is net


def test_atoms_load_and_are_fully_open_two_reaction():
    atoms = load_atoms()
    assert len(atoms) == NUM_ATOMS
    seen = set()
    assert [idx for idx, _ in atoms] == list(range(1, NUM_ATOMS + 1))
    for _, net in atoms:
        assert is_fully_open(net)
        assert net.num_species in (2, 3)
        nonflow = [r for r in net.reactions if not r.is_flow]
        # a reversible pair counts as one reaction
        merged = {frozenset(r.complexes()) for r in nonflow}
        assert len(merged) == 2
        key = tuple(sorted(tuple(sorted(c.items for c in pair)) for pair in merged))
        assert key not in seen  # all eleven are distinct
        seen.add(key)
        ok, _ = is_relevant(net)
        assert not ok  # the flow reactions disqualify the full atom
    with pytest.raises(ValueError):
        load_atom(0)


def test_expected_verdicts():
    assert expected_verdict(FamilySpec("G", 2, 3)).multistationary is True
    assert expected_verdict(FamilySpec("G", 3, 2)).multistationary is False
    assert expected_verdict(FamilySpec("G", 1, 2)).multistationary is False
    assert expected_verdict(FamilySpec("Gbar", 2, 3)).multistable is True
    assert expected_verdict(FamilySpec("Gbar", 1, 3)).multistationary is False
    assert expected_verdict(FamilySpec("H", 2, 2)).multistationary is True
    assert expected_verdict(FamilySpec("H", 1, 2)).multistationary is False
    assert expected_verdict(FamilySpec("K", 2, 3)).multistationary is True
    assert expected_verdict(FamilySpec("K", 2, 4)).multistationary is False
    assert expected_verdict(FamilySpec("K", 1, 3)).multistationary is False
    assert expected_verdict(FamilySpec("K", 2, 3)).note is not None
    assert expected_verdict(FamilySpec("atom-2rxn", 5)).multistationary is True


def test_expected_verdicts_agree_with_analyze():
    # the fully open extensions of G/Gbar/H with m, n <= 5, K(m, n) with
    # m <= 3 and 2 <= n <= 9, and the atoms: 99 networks
    specs = [
        FamilySpec(family, m, n)
        for family in ("G", "Gbar", "H")
        for m in range(1, 6)
        for n in range(1, 6)
        if (m != n if family != "H" else (m, n) != (1, 1))
    ]
    specs += [FamilySpec("K", m, n) for m in range(1, 4) for n in range(2, 10)]
    specs += [FamilySpec("atom-2rxn", k) for k in range(1, NUM_ATOMS + 1)]
    assert len(specs) == 99
    for spec in specs:
        status = analyze(fully_open_extension(generate(spec))).verdict.status
        mss = expected_verdict(spec).multistationary
        assert status == (MULTISTATIONARY if mss else NOT_MULTISTATIONARY), spec
