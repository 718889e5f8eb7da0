"""Seeded benchmark corpora, rendered as the network text a user would type.

The generator is self-contained: it does not import crnmss, so a change
to the program cannot change the inputs it is measured on.  Each case is
one CLI invocation: the argv after ``crnmss`` and the text fed on stdin.

Workloads (each a list of cases, in a seed-shuffled order):

* ``atlas``: ``check --json --no-numeric`` on the 11 two-reaction atoms,
  G/Gbar/H with coefficients up to 5 (64 networks), 200 random networks
  with at most 4 species, 4 reactions and coefficients 2 (the style of
  acceptance criterion 6) together with their fully open extensions, and
  60 random fully open networks with at most 6 species, 6 non-flow
  reactions and coefficients 3: 535 cases.
* ``sequestration``: ``check --json --no-numeric`` on the fully open
  K(m, n), m in 1..3, n in 2..9, plus K(2, 10): 25 cases.  The seed only
  orders the cases; the networks are fixed.
* ``witness``: ``witness --search --json`` on the 11 atoms, plus
  ``check --json --budget 50`` on the inconclusive intro-2 network: 12
  cases.  The bench seed renames species and orders the cases; it does
  not set ``--seed``, so the rate sampling uses the CLI's default seed.
  The number of rate samples until a hit depends on that seed (173 to
  516 over the 11 atoms for rate seeds 0..5), so a bench-seeded rate seed
  would make runs at different bench seeds do different work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("atlas", "sequestration", "witness")

CHECK_ARGV = ("check", "-", "--json", "--no-numeric")
INTRO2_BUDGET = 50

# The 11 fully open two-reaction atoms, one string per atom.
ATOMS = (
    "0 <-> A\n0 <-> B\nA -> 2 A\nA + B -> 0",
    "0 <-> A\n0 <-> B\nA -> 2 A\nA <-> 2 B",
    "0 <-> A\n0 <-> B\n0 <-> C\nA -> 2 A\nA <-> B + C",
    "0 <-> A\n0 <-> B\nA -> A + B\n2 B -> A",
    "0 <-> A\n0 <-> B\nA -> A + B\n2 B -> 2 A",
    "0 <-> A\n0 <-> B\nA -> A + B\nA + B -> 2 A",
    "0 <-> A\n0 <-> B\nA -> A + B\n2 B -> A + B",
    "0 <-> A\n0 <-> B\nB -> 2 A\n2 A -> A + B",
    "0 <-> A\n0 <-> B\nB -> 2 A\n2 A -> 2 B",
    "0 <-> A\n0 <-> B\n0 <-> C\nA -> B + C\nB + C -> 2 A",
    "0 <-> A\n0 <-> B\nA + B -> 2 A\nA -> 2 B",
)

# Criterion 1's second introductory network: every exact stage is
# inconclusive on it and no atom embeds, so the numeric stage spends its
# whole budget.
INTRO2 = "0 <-> A\n0 <-> B\n0 <-> C\n2 A <-> A + B\nA + C <-> B + C"

# A reaction is (reactant, product); a complex is a tuple of
# (species name, coefficient) pairs, rendered in that order.
Cpx = tuple
Rxn = tuple


@dataclass(frozen=True)
class Case:
    """One CLI call: ``crnmss <argv>`` with ``text`` on stdin."""

    id: str
    argv: tuple[str, ...]
    text: str
    species: int
    reactions: int
    # True/False: the known multistationarity of the network; None: unsettled
    expected: bool | None = None


def parse_text(text: str) -> tuple[list[str], list[Rxn]]:
    """Species in order of first appearance and the directed reactions."""
    names: list[str] = []
    reactions: list[Rxn] = []

    def cpx(side: str) -> Cpx:
        side = side.strip()
        if side == "0":
            return ()
        terms = {}
        for term in side.split("+"):
            parts = term.split()
            coeff, name = (int(parts[0]), parts[1]) if len(parts) == 2 else (1, parts[0])
            if name not in names:
                names.append(name)
            terms[name] = terms.get(name, 0) + coeff
        return tuple(sorted(terms.items()))

    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "<->" in line:
            lhs, rhs = line.split("<->")
            a, b = cpx(lhs), cpx(rhs)
            reactions += [(a, b), (b, a)]
        else:
            lhs, rhs = line.split("->")
            a = cpx(lhs)
            reactions.append((a, cpx(rhs)))
    return names, reactions


def render_cpx(c: Cpx) -> str:
    if not c:
        return "0"
    return " + ".join(name if k == 1 else f"{k} {name}" for name, k in c)


def render(reactions: list[Rxn]) -> str:
    return "\n".join(f"{render_cpx(a)} -> {render_cpx(b)}" for a, b in reactions)


def fully_open(reactions: list[Rxn]) -> list[Rxn]:
    """Append each missing inflow and outflow, species in order of first
    appearance (the order ``crnmss check --fully-open`` uses)."""
    names: list[str] = []
    for a, b in reactions:
        for name, _ in a + b:
            if name not in names:
                names.append(name)
    out = list(reactions)
    have = set(out)
    for name in names:
        for rxn in (((), ((name, 1),)), (((name, 1),), ())):
            if rxn not in have:
                have.add(rxn)
                out.append(rxn)
    return out


def random_reactions(rng: random.Random, ns: int, nr: int, max_coeff: int) -> list[Rxn]:
    """Up to nr random distinct nontrivial reactions over S1..S<ns>, each
    coefficient uniform in 0..max_coeff; species that end up unused are
    simply absent."""
    reactions: list[Rxn] = []
    for _ in range(nr):
        for _attempt in range(60):
            a = tuple((f"S{i + 1}", c) for i in range(ns) if (c := rng.randint(0, max_coeff)))
            b = tuple((f"S{i + 1}", c) for i in range(ns) if (c := rng.randint(0, max_coeff)))
            if a != b and (a, b) not in reactions:
                reactions.append((a, b))
                break
    return reactions


def _sizes(count: int, max_species: int, max_reactions: int):
    """(species, reactions) bounds cycling through every pair in turn.
    Stratified rather than random sizes keep the corpus's total cost from
    moving with the seed."""
    for i in range(count):
        yield 1 + i % max_species, 1 + (i // max_species) % max_reactions


def _sequestration(m: int, n: int) -> list[Rxn]:
    """Fully open K(m, n) as ``crnmss generate K m n --fully-open`` prints it."""
    xs = [f"X{i}" for i in range(1, n + 1)]
    reactions: list[Rxn] = [(((xs[0], 1),), ((xs[-1], m),))]
    reactions += [(((xs[i], 1), (xs[i + 1], 1)), ()) for i in range(n - 1)]
    for x in xs:
        reactions += [((), ((x, 1),)), (((x, 1),), ())]
    return reactions


def _case(cid: str, argv, reactions: list[Rxn], expected=None) -> Case:
    names = {name for a, b in reactions for name, _ in a + b}
    return Case(cid, tuple(argv), render(reactions), len(names), len(reactions), expected)


def _rename(reactions: list[Rxn], rng: random.Random) -> list[Rxn]:
    """Give each species a fresh seeded name; the first-appearance order,
    and so the species indexing inside crnmss, is unchanged."""
    mapping: dict[str, str] = {}
    for a, b in reactions:
        for name, _ in a + b:
            if name not in mapping:
                mapping[name] = f"{name}_{rng.randrange(16**4):04x}"
    return [
        (tuple((mapping[n], k) for n, k in a), tuple((mapping[n], k) for n, k in b))
        for a, b in reactions
    ]


def _g(m: int, n: int) -> list[Rxn]:
    return parse_text(f"0 <-> A\n{m} A -> {n} A")[1]


def _gbar(m: int, n: int) -> list[Rxn]:
    return parse_text(f"0 <-> A\n{m} A <-> {n} A")[1]


def _h(m: int, n: int) -> list[Rxn]:
    return parse_text(f"0 <-> A\n0 <-> B\nA + B -> {m} A + {n} B")[1]


def atom_networks() -> dict[str, list[Rxn]]:
    """Every network an atom-embedding certificate may name, by atom id:
    the atoms, G(m, n) with n > m > 1 and H(m, n) with m, n > 1, up to the
    largest coefficient in the corpus."""
    out = {f"2rxn-{i + 1}": parse_text(text)[1] for i, text in enumerate(ATOMS)}
    for m in range(2, 6):
        out |= {f"G({m},{n})": _g(m, n) for n in range(m + 1, 6)}
        out |= {f"H({m},{n})": _h(m, n) for n in range(2, 6)}
    return out


def atlas(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = [
        _case(f"atom{i + 1:02d}", CHECK_ARGV, parse_text(text)[1], True)
        for i, text in enumerate(ATOMS)
    ]
    for m in range(1, 6):
        for n in range(1, 6):
            if m != n:
                cases.append(_case(f"G({m},{n})", CHECK_ARGV, _g(m, n), n > m > 1))
                cases.append(_case(f"Gbar({m},{n})", CHECK_ARGV, _gbar(m, n), m > 1 and n > 1))
            if (m, n) != (1, 1):
                cases.append(_case(f"H({m},{n})", CHECK_ARGV, _h(m, n), m > 1 and n > 1))
    for i, (ns, nr) in enumerate(_sizes(200, 4, 4)):
        rxns = random_reactions(rng, ns, nr, 2)
        cases.append(_case(f"rand4-{i:03d}", CHECK_ARGV, rxns))
        cases.append(_case(f"rand4-{i:03d}-open", CHECK_ARGV, fully_open(rxns)))
    for i, (ns, nr) in enumerate(_sizes(60, 6, 6)):
        rxns = fully_open(random_reactions(rng, ns, nr, 3))
        cases.append(_case(f"open6-{i:02d}", CHECK_ARGV, rxns))
    rng.shuffle(cases)
    return cases


def sequestration(seed: int) -> list[Case]:
    rng = random.Random(seed)
    params = [(m, n) for m in (1, 2, 3) for n in range(2, 10)] + [(2, 10)]
    cases = [
        _case(f"K({m},{n})", CHECK_ARGV, _sequestration(m, n), m > 1 and n % 2 == 1)
        for m, n in params
    ]
    rng.shuffle(cases)
    return cases


def witness(seed: int) -> list[Case]:
    rng = random.Random(seed)
    argv = ("witness", "-", "--search", "--json")
    cases = [
        _case(f"atom{i + 1:02d}", argv, _rename(parse_text(text)[1], rng), True)
        for i, text in enumerate(ATOMS)
    ]
    argv = ("check", "-", "--json", "--budget", str(INTRO2_BUDGET))
    cases.append(_case("intro2", argv, _rename(parse_text(INTRO2)[1], rng)))
    rng.shuffle(cases)
    return cases


def generate(workload: str, seed: int) -> list[Case]:
    return {"atlas": atlas, "sequestration": sequestration, "witness": witness}[workload](seed)
