"""Structural analysis: stoichiometric matrices, linkage classes, deficiency.

The deficiency formula p - l - rank(Gamma) is only meaningful when every
linkage class contains exactly one terminal strong linkage class;
``deficiency`` reports applicability instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import rank_int
from .network import ReactionNetwork, StoichData


def stoich(net: ReactionNetwork) -> StoichData:
    """The network's stoichiometric data, built once and cached on it."""
    return net.stoich_data


def strong_components(num_nodes: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    """Groups of nodes that reach each other, each sorted, ordered by
    smallest member.  A search from every node finds what it reaches, so
    the work is quadratic in ``num_nodes``.
    """
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v in edges:
        adj[u].append(v)
    reach = []
    for root in range(num_nodes):
        seen = {root}
        stack = [root]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        reach.append(seen)
    # each node's group of mutual reach, kept once: at its smallest member
    mutual = [sorted(v for v in reach[u] if u in reach[v]) for u in range(num_nodes)]
    return [comp for u, comp in enumerate(mutual) if comp[0] == u]


@dataclass(frozen=True)
class DeficiencyReport:
    applicable: bool
    total: int | None
    per_class: tuple[int, ...] | None
    num_complexes: int
    num_linkage_classes: int
    rank: int
    weakly_reversible: bool


def deficiency(net: ReactionNetwork) -> DeficiencyReport:
    """Deficiency p - l - rank(Gamma), plus per linkage class values, and
    weak reversibility, all read off one complex graph.

    The linkage classes are the strong components once every edge also
    runs reversed.  Each holds at least one terminal strong linkage class
    (a strong class that no edge leaves); when some holds more than one,
    the formula is not the dimension-gap it is meant to measure, so the
    report comes back with applicable=False and no numbers.  The network
    is weakly reversible iff no edge leaves its strong class.
    """
    data = stoich(net)
    index = {cpx: i for i, cpx in enumerate(net.complexes())}
    p = len(index)
    edges = [(index[rxn.reactant], index[rxn.product]) for rxn in net.reactions]
    strong = strong_components(p, edges)
    linkage = strong_components(p, edges + [(v, u) for u, v in edges])
    l = len(linkage)
    comp_of = {node: ci for ci, comp in enumerate(strong) for node in comp}
    exits = {comp_of[u] for u, v in edges if comp_of[u] != comp_of[v]}
    applicable = len(strong) - len(exits) == l  # one terminal class per linkage class

    def class_rank(lc: list[int]) -> int:
        members = set(lc)
        cols = [j for j, rxn in enumerate(net.reactions) if index[rxn.reactant] in members]
        return rank_int([[row[j] for j in cols] for row in data.stoich_matrix])

    total = per_class = None
    if applicable:
        total = p - l - data.rank
        # a single linkage class holds the whole matrix, ranked already
        per_class = tuple(len(lc) - 1 - (data.rank if l == 1 else class_rank(lc)) for lc in linkage)
    return DeficiencyReport(
        applicable=applicable,
        total=total,
        per_class=per_class,
        num_complexes=p,
        num_linkage_classes=l,
        rank=data.rank,
        weakly_reversible=not exits,
    )
