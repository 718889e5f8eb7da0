"""Structural analysis: stoichiometric matrices, linkage classes, deficiency.

The deficiency formula p - l - rank(Gamma) is only meaningful when every
linkage class contains exactly one terminal strong linkage class;
``deficiency`` reports applicability instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import rank_int, submatrix
from .network import ReactionNetwork, StoichData


def stoich(net: ReactionNetwork) -> StoichData:
    """The network's stoichiometric data, built once and cached on it."""
    return net.stoich_data


def _complex_graph(net: ReactionNetwork) -> tuple[int, list[tuple[int, int]]]:
    index = net.complex_index
    edges = [(index[r.reactant], index[r.product]) for r in net.reactions]
    return len(index), edges


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


def linkage_classes(net: ReactionNetwork) -> list[list[int]]:
    """Connected components of the undirected complex graph: the strong
    components once every edge also runs reversed.

    Returns lists of complex indices (into ``net.complexes()``), each
    sorted, ordered by smallest member.
    """
    p, edges = _complex_graph(net)
    return strong_components(p, edges + [(v, u) for u, v in edges])


def terminal_strong_linkage_classes(net: ReactionNetwork) -> dict:
    """Linkage classes, strong linkage classes and the terminal ones (no
    edges leaving), from one complex graph.

    Returns a dict with keys:
      "linkage": the linkage classes, as from ``linkage_classes``,
      "strong": list of strong linkage classes (complex index lists),
      "terminal": the terminal subset,
      "unique_per_class": True iff every linkage class has exactly one.
    Every linkage class holds at least one terminal class, so the last is
    True iff there are as many terminal classes as linkage classes.
    """
    p, edges = _complex_graph(net)
    sccs = strong_components(p, edges)
    comp_of = {node: ci for ci, comp in enumerate(sccs) for node in comp}
    exits = {comp_of[u] for u, v in edges if comp_of[u] != comp_of[v]}
    terminal = [comp for ci, comp in enumerate(sccs) if ci not in exits]
    lclasses = strong_components(p, edges + [(v, u) for u, v in edges])
    return {
        "linkage": lclasses,
        "strong": sccs,
        "terminal": terminal,
        "unique_per_class": len(terminal) == len(lclasses),
    }


def is_weakly_reversible(net: ReactionNetwork) -> bool:
    """True iff every linkage class is a single strong component."""
    info = terminal_strong_linkage_classes(net)
    return len(info["strong"]) == len(info["linkage"])


@dataclass(frozen=True)
class DeficiencyReport:
    applicable: bool
    total: int | None
    per_class: tuple[int, ...] | None
    num_complexes: int
    num_linkage_classes: int
    rank: int
    weakly_reversible: bool
    reason: str | None = None


def deficiency(net: ReactionNetwork) -> DeficiencyReport:
    """Deficiency p - l - rank(Gamma), plus per linkage class values, and
    weak reversibility read off the same linkage classes.

    When some linkage class holds more than one terminal strong linkage
    class the formula is not the dimension-gap it is meant to measure, so
    the report comes back with applicable=False and no numbers.
    """
    data = stoich(net)
    classes = terminal_strong_linkage_classes(net)
    lclasses = classes["linkage"]
    index = net.complex_index
    p = len(index)
    l = len(lclasses)
    weakly_reversible = len(classes["strong"]) == l
    if not classes["unique_per_class"]:
        return DeficiencyReport(
            applicable=False,
            total=None,
            per_class=None,
            num_complexes=p,
            num_linkage_classes=l,
            rank=data.rank,
            weakly_reversible=weakly_reversible,
            reason="some linkage class contains more than one terminal strong linkage class",
        )

    def class_rank(lc: list[int]) -> int:
        members = set(lc)
        cols = [j for j, rxn in enumerate(net.reactions) if index[rxn.reactant] in members]
        return rank_int(submatrix(data.stoich_matrix, range(net.num_species), cols))

    # a single linkage class holds the whole matrix, ranked already
    per = [len(lc) - 1 - (data.rank if l == 1 else class_rank(lc)) for lc in lclasses]
    return DeficiencyReport(
        applicable=True,
        total=p - l - data.rank,
        per_class=tuple(per),
        num_complexes=p,
        num_linkage_classes=l,
        rank=data.rank,
        weakly_reversible=weakly_reversible,
    )
