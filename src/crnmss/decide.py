"""Decision procedures for multistationarity and the analyze pipeline.

Every procedure either produces a certificate that survives exact
rational re-checking or declines; absence of a certificate is never
spun into a "not multistationary" verdict.  The pipeline order puts
cheap structural preclusions first and numeric search last.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from . import families
from .embedding import (
    EmbeddingWitness,
    LimitExceeded,
    SquareEmbeddedNetwork,
    enumerate_sens,
    find_embedding,
    irrelevant_alone,
    is_cfstr,
    is_fully_open,
    non_flow_subnetwork,
    orientation,
    sen_is_relevant,
)
from .lp import solve_feasibility
from .network import ReactionNetwork, render_network, render_reaction
from .structure import DeficiencyReport, deficiency, stoich

MULTISTATIONARY = "MULTISTATIONARY"
NOT_MULTISTATIONARY = "NOT_MULTISTATIONARY"
NO_POSITIVE_STEADY_STATES = "NO_POSITIVE_STEADY_STATES"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Verdict:
    """A status and its certificate, which holds only JSON values."""

    status: str
    certificate: dict | None
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "certificate": self.certificate,
            "notes": list(self.notes),
        }


def _sen_reactions(sen: SquareEmbeddedNetwork) -> list[str]:
    names = sen.host.species_names()
    return [render_reaction(r, names) for r in sen.reactions]


# ---------------------------------------------------------------------------
# network facts and the deficiency theorems


@dataclass(frozen=True)
class NetworkFacts:
    """The structural facts every stage reads, computed once per analysis."""

    deficiency: DeficiencyReport
    cfstr: bool
    fully_open: bool


def network_facts(net: ReactionNetwork) -> NetworkFacts:
    return NetworkFacts(deficiency(net), is_cfstr(net), is_fully_open(net))


def check_deficiency_zero(facts: NetworkFacts) -> Verdict | str:
    """The deficiency zero theorem's verdict, or a note saying why it is silent."""
    report = facts.deficiency
    if not report.applicable:
        return (
            "deficiency formula not applicable: some linkage class contains more "
            "than one terminal strong linkage class"
        )
    if report.total != 0:
        return f"deficiency {report.total}, not zero"
    if report.weakly_reversible:
        return Verdict(
            NOT_MULTISTATIONARY,
            {
                "kind": "deficiency-zero",
                "deficiency": 0,
                "weakly_reversible": True,
            },
            notes=(
                "deficiency zero and weakly reversible: exactly one positive steady "
                "state per compatibility class, locally asymptotically stable",
            ),
        )
    return Verdict(
        NO_POSITIVE_STEADY_STATES,
        {
            "kind": "deficiency-zero",
            "deficiency": 0,
            "weakly_reversible": False,
        },
        notes=("deficiency zero and not weakly reversible: no positive steady state",),
    )


def check_deficiency_one(facts: NetworkFacts) -> Verdict | str | None:
    """The deficiency one theorem's verdict, or a note saying why it is
    silent; None when the deficiency formula does not apply."""
    report = facts.deficiency
    if not report.applicable:
        return None
    assert report.per_class is not None and report.total is not None
    if any(d > 1 for d in report.per_class):
        return "deficiency one theorem: some class deficiency exceeds one"
    if sum(report.per_class) != report.total:
        return (
            "deficiency one theorem: class deficiencies "
            f"{list(report.per_class)} do not sum to {report.total}"
        )
    return Verdict(
        NOT_MULTISTATIONARY,
        {
            "kind": "deficiency-one",
            "deficiency": report.total,
            "per_class": list(report.per_class),
        },
        notes=("deficiency one conditions hold: at most one positive steady state per class",),
    )


# ---------------------------------------------------------------------------
# injectivity


@dataclass(frozen=True)
class InjectivityReport:
    status: str  # "injective" | "not-injective" | "degenerate"
    sign: int | None = None
    negative_sen: SquareEmbeddedNetwork | None = None

    @property
    def injective(self) -> bool:
        return self.status == "injective"


def injectivity_minors(net: ReactionNetwork) -> InjectivityReport:
    """All rank-size minor products of (Gamma, reactant matrix) share a sign.

    For species S and reactions R of size k, det Gamma[S,R] * det M[R,S]
    is (-1)^k times the orientation of the square embedded network that R
    restricted to S forms; a pair with a trivial or repeated restriction
    has a zero or repeated column of Gamma[S,R], so its product is 0.  The
    scan therefore reads the rank-size ``enumerate_sens`` stream, keeps the
    sign of the first nonzero product and stops at the first product of
    the other sign.  The all-zero outcome, which includes rank 0, is
    reported as "degenerate" and treated as not injective by callers.  The
    work bound of ``enumerate_sens`` applies; past it the scan raises
    ``LimitExceeded``.
    """
    k = stoich(net).rank
    sign = 0
    for sen in enumerate_sens(net, (k,)):
        value = (-1) ** k * orientation(sen)
        if value == 0:
            continue
        if not sign:
            sign = 1 if value > 0 else -1
        elif value * sign < 0:
            return InjectivityReport("not-injective")
    if not sign:
        return InjectivityReport("degenerate")
    return InjectivityReport("injective", sign=sign)


def _unit_rows(n: int) -> list[list[int]]:
    """The unit rows e_0, ..., e_{n-1}."""
    return [[int(i == j) for i in range(n)] for j in range(n)]


def cfstr_injectivity(net: ReactionNetwork) -> InjectivityReport:
    """Injectivity of a CFSTR via relevant square embedded networks.

    The CFSTR is injective iff no relevant square embedded network (SEN)
    of its non-flow subnetwork is negatively oriented.  One
    ``enumerate_sens`` scan reads the sizes k = 1, 2, ..., min(species,
    reactions) in turn, without the restrictions that no relevant SEN can
    contain (``irrelevant_alone``: an empty reactant or a generalized
    outflow), which is exact, and every SEN it yields goes through
    ``sen_is_relevant`` and the exact ``orientation``.  The scan restricts
    each (reaction, support meet) pair once for all sizes together.  The
    stream is ordered, so the counterexample is the first hit: the
    negative SEN of least size that is least by (reaction_indices,
    species_indices).  The work bound of ``enumerate_sens`` holds for each
    size on its own, not for the sizes together, and a size is checked
    only when the scan reaches it; past the bound the scan raises
    ``LimitExceeded``.  So a scan that finds its counterexample at a small
    size never refuses because of a larger one.
    """
    if not is_cfstr(net):
        raise ValueError("cfstr_injectivity requires every species to have an outflow")
    g0 = non_flow_subnetwork(net)

    def admit(res) -> bool:
        return irrelevant_alone(res) is None

    sizes = range(1, min(g0.num_species, g0.num_reactions) + 1)
    for sen in enumerate_sens(g0, sizes, admit):
        if sen_is_relevant(sen)[0] and orientation(sen) < 0:
            return InjectivityReport("not-injective", negative_sen=sen)
    return InjectivityReport("injective")


# ---------------------------------------------------------------------------
# positive dependence


def positive_dependence(net: ReactionNetwork) -> tuple[Fraction, ...] | None:
    """An alpha >= 1 with Gamma alpha = 0 (alpha > 0 up to scale), or None.

    This is the LP route, which ``analyze`` calls only when structure is
    silent.
    """
    r = net.num_reactions
    return solve_feasibility(r, stoich(net).stoich_matrix, _unit_rows(r))


# ---------------------------------------------------------------------------
# one-reaction classification


@dataclass(frozen=True)
class OneReactionClassification:
    forward_sum: int
    backward_sum: int
    multistationary: bool


def classify_one_nonflow_fully_open(
    a: Sequence[int], b: Sequence[int], reversible: bool = False
) -> OneReactionClassification:
    """Multistationarity of the fully open network with one non-flow reaction.

    For the reaction a -> b, the irreversible network is multistationary
    iff the sum of a_i over the species with b_i > a_i (those the reaction
    produces net) exceeds one.  The reversible pair a <-> b is
    multistationary iff that sum or the mirrored sum, of b_i over the
    species with a_i > b_i, exceeds one.
    """
    av, bv = tuple(int(x) for x in a), tuple(int(x) for x in b)
    if len(av) != len(bv) or not av:
        raise ValueError("coefficient vectors must share a positive length")
    if any(x < 0 for x in av + bv):
        raise ValueError("coefficients must be non-negative")
    if av == bv:
        raise ValueError("trivial reaction: reactant equals product")
    forward = sum(ai for ai, bi in zip(av, bv) if bi > ai)
    backward = sum(bi for ai, bi in zip(av, bv) if ai > bi)
    mss = forward > 1 or (reversible and backward > 1)
    return OneReactionClassification(forward, backward, mss)


def _single_nonflow_shape(net: ReactionNetwork):
    """(a, b, reversible) when the non-flow part is one reaction or one
    reversible pair, else None."""
    nonflow = [j for j, rxn in enumerate(net.reactions) if not rxn.is_flow]
    rxns = [net.reactions[j] for j in nonflow]
    if not (len(rxns) == 1 or len(rxns) == 2 and rxns[0] == rxns[1].reversed_()):
        return None
    data, j = net.stoich_data, nonflow[0]
    a = data.reactant_matrix[j]
    return a, tuple(y + row[j] for y, row in zip(a, data.stoich_matrix)), len(rxns) == 2


# ---------------------------------------------------------------------------
# determinant optimization


@dataclass(frozen=True)
class DetOptCertificate:
    sen: SquareEmbeddedNetwork
    eta: tuple[Fraction, ...]
    orientation: int

    def to_json(self) -> dict:
        return {
            "reaction_indices": list(self.sen.reaction_indices),
            "species": list(self.sen.species_names()),
            "reactions": _sen_reactions(self.sen),
            "orientation": self.orientation,
            "kind": "det-opt",
            "eta": [str(e) for e in self.eta],
        }


def det_opt_condition(
    sen: SquareEmbeddedNetwork, eta: Sequence[Fraction | int]
) -> bool:
    """Exact check: orientation < 0, eta > 0, and the eta-combination of
    reactant-minus-product vectors is componentwise positive."""
    vals = [Fraction(e) for e in eta]
    if len(vals) != len(sen.reactions):
        return False
    if any(e <= 0 for e in vals):
        return False
    if orientation(sen) >= 0:
        return False
    for i in sen.species_indices:
        total = Fraction(0)
        for e, rxn in zip(vals, sen.reactions):
            total += e * (rxn.reactant.coeff(i) - rxn.product.coeff(i))
        if total <= 0:
            return False
    return True


def determinant_optimization(net: ReactionNetwork) -> DetOptCertificate | None:
    """Search for a negatively oriented full-size SEN of the non-flow
    subnetwork whose reaction vectors admit a positive combination with
    positive species totals; such a certificate makes the fully open
    extension multistationary.

    The SENs come from one ``enumerate_sens`` scan, so past its work bound
    the search raises ``LimitExceeded``.
    """
    if not is_cfstr(net):
        raise ValueError("determinant optimization requires a CFSTR")
    s = net.num_species
    g0 = non_flow_subnetwork(net)
    if g0.num_species != s or g0.num_reactions < s:
        return None
    gamma = g0.stoich_data.stoich_matrix

    for sen in enumerate_sens(g0, (s,)):
        value = orientation(sen)
        if value >= 0:
            continue
        # the SEN keeps every species of g0, so its reactant-minus-product
        # rows are those of -Gamma at the SEN's reactions
        k = len(sen.reactions)
        rows = [[-row[j] for j in sen.reaction_indices] for row in gamma]
        eta = solve_feasibility(k, one_rows=rows + _unit_rows(k))
        if eta is not None:
            cert = DetOptCertificate(sen, eta, value)
            assert det_opt_condition(cert.sen, cert.eta)
            return cert
    return None


# ---------------------------------------------------------------------------
# atom database search


def _atom_database(net: ReactionNetwork) -> Iterator[tuple[str, ReactionNetwork]]:
    """The 11 atoms, then the G(m,n) and H(m,n) that ``net`` could hold,
    each family by (m, n).

    G(m,n) embeds only where some reaction restricts to m X -> n X on one
    species, and H(m,n) only where one restricts to X + Y -> m X + n Y on
    two, so those (m, n) are read off the reactions.
    """
    for idx, atom in families.load_atoms():
        yield f"2rxn-{idx}", atom
    g_params, h_params = set(), set()
    for rxn in net.reactions:
        for x, m in rxn.reactant:
            n = rxn.product.coeff(x)
            if 2 <= m < n:
                g_params.add((m, n))
        ones = [x for x, c in rxn.reactant if c == 1]
        for x, y in itertools.permutations(ones, 2):
            m, n = rxn.product.coeff(x), rxn.product.coeff(y)
            if m >= 2 and n >= 2:
                h_params.add((m, n))
    for m, n in sorted(g_params):
        yield f"G({m},{n})", families.generate(families.FamilySpec("G", m, n))
    for m, n in sorted(h_params):
        yield f"H({m},{n})", families.generate(families.FamilySpec("H", m, n))


@dataclass(frozen=True)
class AtomMatch:
    atom_id: str
    atom: ReactionNetwork
    witness: EmbeddingWitness

    def to_json(self) -> dict:
        return {
            "atom": self.atom_id,
            "atom_network": render_network(self.atom),
            "species_map": list(self.witness.species_map),
            "reaction_map": list(self.witness.reaction_map),
        }


def atom_db_matches(net: ReactionNetwork) -> Iterator[AtomMatch]:
    """Stream every known multistationary atom embedded in ``net``, in
    database order: the 11 two-reaction atoms, then G(m,n) with
    2 <= m < n, then H(m,n) with m, n >= 2.

    Only the family members whose non-flow reaction is the restriction of
    some reaction of ``net`` are tried, so the work grows with the size of
    ``net`` and not with its largest coefficient.
    """
    for atom_id, atom in _atom_database(net):
        witness = find_embedding(atom, net)
        if witness is not None:
            yield AtomMatch(atom_id, atom, witness)


def atom_db_search(net: ReactionNetwork) -> AtomMatch | None:
    """First embedded atom in database order, or None."""
    return next(atom_db_matches(net), None)


# ---------------------------------------------------------------------------
# the pipeline
#
# A stage maps (net, facts) to a Verdict when it concludes, to a note when
# it does not, or to None when it has nothing to say; the numeric stage also
# takes a budget and a seed, and concludes with an AnalysisResult.  Stages
# call the layer functions through this module's globals.


@dataclass
class AnalysisResult:
    verdict: Verdict
    witness: object | None = None  # SteadyStateWitness when numeric search concluded
    facts: NetworkFacts | None = None


def _positive_dependence_stage(net, facts):
    # Structure decides most networks without the LP.  Fully open: alpha = 1
    # on every other reaction leaves a net change d, and outflow_i =
    # 1 + max(0, d_i), inflow_i = outflow_i - d_i cancel it.  Weakly
    # reversible: the cycles through every reaction sum to a dependence.
    # A nonzero one-signed row i of Gamma gives (Gamma alpha)_i != 0 for
    # every alpha > 0; a zero row (a species that is only a catalyst) does not.
    if facts.fully_open or facts.deficiency.weakly_reversible:
        holds = True
    elif any(any(row) and (min(row) >= 0 or max(row) <= 0) for row in stoich(net).stoich_matrix):
        holds = False
    else:
        holds = positive_dependence(net) is not None
    if holds:
        return "positive dependence holds"
    return Verdict(
        NO_POSITIVE_STEADY_STATES,
        {"kind": "positive-dependence-failure"},
        notes=(
            "the reaction vectors admit no strictly positive linear dependence, so the "
            "right-hand side never vanishes at positive concentrations",
        ),
    )


def _injectivity_stage(net, facts):
    if facts.cfstr:
        report = cfstr_injectivity(net)
        if report.injective:
            return Verdict(
                NOT_MULTISTATIONARY,
                {"kind": "injectivity-cfstr"},
                notes=(
                    "every relevant square embedded network of the non-flow "
                    "subnetwork has non-negative orientation",
                ),
            )
        assert report.negative_sen is not None
        return (
            "injectivity fails: negatively oriented relevant square embedded "
            f"network {_sen_reactions(report.negative_sen)}"
        )
    report = injectivity_minors(net)
    if report.injective:
        return Verdict(
            NOT_MULTISTATIONARY,
            {"kind": "injectivity-minors", "sign": report.sign},
            notes=("all rank-size minor products share one sign",),
        )
    if report.status == "degenerate":
        return (
            "injectivity degenerate: every rank-size minor product vanishes; "
            "treated as not injective"
        )
    return "injectivity fails: minor products of both signs exist"


def _one_reaction_stage(net, facts):
    shape = _single_nonflow_shape(net)
    if shape is None or not facts.fully_open:
        return None
    a, b, reversible = shape
    cls = classify_one_nonflow_fully_open(a, b, reversible)
    cert = {
        "kind": "one-reaction-formula",
        "reactant": list(a),
        "product": list(b),
        "reversible": reversible,
        "forward_sum": cls.forward_sum,
        "backward_sum": cls.backward_sum,
    }
    return Verdict(MULTISTATIONARY if cls.multistationary else NOT_MULTISTATIONARY, cert)


def _det_opt_stage(net, facts):
    if not facts.cfstr:
        return None
    cert = determinant_optimization(net)
    if cert is None:
        return "determinant optimization found no certificate"
    if facts.fully_open:
        return Verdict(MULTISTATIONARY, cert.to_json())
    return (
        "determinant optimization certifies the fully open extension "
        "is multistationary (network itself is not fully open)"
    )


def _atom_search_stage(net, facts):
    if not facts.fully_open:
        return "atom search skipped: network is not fully open"
    match = atom_db_search(net)
    if match is None:
        return "no known multistationary atom embeds"
    return Verdict(MULTISTATIONARY, {**match.to_json(), "kind": "atom-embedding"})


def _numeric_stage(net, facts, budget, seed):
    if not facts.fully_open:
        return "numeric search skipped: network is not fully open"
    from . import witness

    found = witness.rate_search(net, budget=budget, seed=seed)
    if found is None:
        return f"numeric search found no multiple steady states within budget {budget}"
    cert = {
        "kind": "numeric-witness",
        "states": len(found.states),
        "nondegenerate_states": found.count_nondegenerate(),
    }
    return AnalysisResult(Verdict(MULTISTATIONARY, cert), witness=found)


# the exact stages, cheapest first
STAGES: dict[str, Callable[[ReactionNetwork, NetworkFacts], Verdict | str | None]] = {
    "positive-dependence": _positive_dependence_stage,
    "deficiency-zero": lambda net, facts: check_deficiency_zero(facts),
    "deficiency-one": lambda net, facts: check_deficiency_one(facts),
    "injectivity": _injectivity_stage,
    "one-reaction": _one_reaction_stage,
    "det-opt": _det_opt_stage,
    "atom-search": _atom_search_stage,
}


def analyze(
    net: ReactionNetwork, *, numeric: bool = False, budget: int = 200, seed: int = 0
) -> AnalysisResult:
    """Run the exact stages in order, then the numeric stage when ``numeric``
    is true; the first conclusive stage wins.

    A stage past a work bound raises ``LimitExceeded`` with its name first.
    """
    facts = network_facts(net)
    stages = list(STAGES.items())
    if numeric:
        stages.append(("numeric", lambda net, facts: _numeric_stage(net, facts, budget, seed)))
    notes: list[str] = []
    for name, stage in stages:
        try:
            outcome = stage(net, facts)
        except LimitExceeded as exc:
            raise LimitExceeded(f"{name}: {exc}") from exc
        if isinstance(outcome, str):
            notes.append(outcome)
        elif outcome is not None:
            result = outcome if isinstance(outcome, AnalysisResult) else AnalysisResult(outcome)
            v = result.verdict
            verdict = Verdict(v.status, v.certificate, tuple(notes) + v.notes)
            return AnalysisResult(verdict, result.witness, facts)
    return AnalysisResult(Verdict(INCONCLUSIVE, None, tuple(notes)), facts=facts)
