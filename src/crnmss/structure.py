"""Structural analysis: stoichiometric matrices, linkage classes, deficiency.

Matrix conventions (species count s, reaction count r, complex count p):

* complex matrix Y: p x s, row i = dense vector of complex i;
* stoichiometric matrix Gamma: s x r, column k = product - reactant of
  reaction k; its column span is the stoichiometric subspace;
* reactant matrix M: r x s, row k = reactant complex of reaction k.

The deficiency formula p - l - rank(Gamma) is only meaningful when every
linkage class contains exactly one terminal strong linkage class;
``deficiency`` reports applicability instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import rank_int, submatrix
from .network import ReactionNetwork


@dataclass(frozen=True)
class StoichData:
    complex_matrix: tuple[tuple[int, ...], ...]  # p x s
    stoich_matrix: tuple[tuple[int, ...], ...]  # s x r
    reactant_matrix: tuple[tuple[int, ...], ...]  # r x s
    rank: int  # dim of the stoichiometric subspace


def stoich(net: ReactionNetwork) -> StoichData:
    s = net.num_species
    complexes = net.complexes()
    y = tuple(tuple(cpx.vector(s)) for cpx in complexes)
    gamma_cols = []
    m_rows = []
    for rxn in net.reactions:
        rvec = rxn.reactant.vector(s)
        pvec = rxn.product.vector(s)
        gamma_cols.append([pvec[i] - rvec[i] for i in range(s)])
        m_rows.append(tuple(rvec))
    gamma = tuple(tuple(col[i] for col in gamma_cols) for i in range(s))
    return StoichData(y, gamma, tuple(m_rows), rank_int(gamma))


def _complex_graph(net: ReactionNetwork) -> tuple[int, list[tuple[int, int]]]:
    index = net.complex_index()
    edges = [(index[r.reactant], index[r.product]) for r in net.reactions]
    return len(index), edges


def linkage_classes(net: ReactionNetwork) -> list[list[int]]:
    """Connected components of the undirected complex graph.

    Returns lists of complex indices (into ``net.complexes()``), each
    sorted, ordered by smallest member.
    """
    p, edges = _complex_graph(net)
    parent = list(range(p))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for node in range(p):
        groups.setdefault(find(node), []).append(node)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def strong_components(num_nodes: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative.  Components sorted by smallest member."""
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v in edges:
        adj[u].append(v)
    index_counter = 0
    indices = [-1] * num_nodes
    lowlink = [0] * num_nodes
    on_stack = [False] * num_nodes
    stack: list[int] = []
    components: list[list[int]] = []

    for root in range(num_nodes):
        if indices[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, ptr = work[-1]
            if ptr == 0:
                indices[node] = lowlink[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            while ptr < len(adj[node]):
                child = adj[node][ptr]
                ptr += 1
                if indices[child] == -1:
                    work[-1] = (node, ptr)
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack[child]:
                    lowlink[node] = min(lowlink[node], indices[child])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == indices[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                components.append(sorted(comp))
            if work:
                parent_node = work[-1][0]
                lowlink[parent_node] = min(lowlink[parent_node], lowlink[node])
    return sorted(components, key=lambda c: c[0])


def terminal_strong_linkage_classes(net: ReactionNetwork) -> dict:
    """Strong linkage classes and the terminal ones (no edges leaving).

    Returns a dict with keys:
      "strong": list of strong linkage classes (complex index lists),
      "terminal": the terminal subset,
      "per_linkage_class": list (parallel to linkage_classes) of counts of
          terminal classes inside each linkage class,
      "unique_per_class": True iff every linkage class has exactly one.
    """
    p, edges = _complex_graph(net)
    sccs = strong_components(p, edges)
    comp_of = [0] * p
    for ci, comp in enumerate(sccs):
        for node in comp:
            comp_of[node] = ci
    has_exit = [False] * len(sccs)
    for u, v in edges:
        if comp_of[u] != comp_of[v]:
            has_exit[comp_of[u]] = True
    terminal = [sccs[i] for i in range(len(sccs)) if not has_exit[i]]
    lclasses = linkage_classes(net)
    counts = []
    for lc in lclasses:
        members = set(lc)
        counts.append(sum(1 for t in terminal if t[0] in members))
    return {
        "strong": sccs,
        "terminal": terminal,
        "per_linkage_class": counts,
        "unique_per_class": all(c == 1 for c in counts),
    }


def is_weakly_reversible(net: ReactionNetwork) -> bool:
    """True iff every linkage class is a single strong component."""
    info = terminal_strong_linkage_classes(net)
    return len(info["strong"]) == len(linkage_classes(net))


@dataclass(frozen=True)
class DeficiencyReport:
    applicable: bool
    total: int | None
    per_class: tuple[int, ...] | None
    num_complexes: int
    num_linkage_classes: int
    rank: int
    reason: str | None = None


def deficiency(net: ReactionNetwork, data: StoichData | None = None) -> DeficiencyReport:
    """Deficiency p - l - rank(Gamma), plus per linkage class values.

    When some linkage class holds more than one terminal strong linkage
    class the formula is not the dimension-gap it is meant to measure, so
    the report comes back with applicable=False and no numbers.  ``data``
    is ``stoich(net)`` when the caller has it already.
    """
    if data is None:
        data = stoich(net)
    lclasses = linkage_classes(net)
    p = len(net.complexes())
    l = len(lclasses)
    info = terminal_strong_linkage_classes(net)
    if not info["unique_per_class"]:
        return DeficiencyReport(
            applicable=False,
            total=None,
            per_class=None,
            num_complexes=p,
            num_linkage_classes=l,
            rank=data.rank,
            reason="some linkage class contains more than one terminal strong linkage class",
        )
    index = net.complex_index()
    per = []
    for lc in lclasses:
        members = set(lc)
        cols = [j for j, rxn in enumerate(net.reactions) if index[rxn.reactant] in members]
        gamma = submatrix(data.stoich_matrix, range(net.num_species), cols)
        per.append(len(lc) - 1 - rank_int(gamma))
    return DeficiencyReport(
        applicable=True,
        total=p - l - data.rank,
        per_class=tuple(per),
        num_complexes=p,
        num_linkage_classes=l,
        rank=data.rank,
    )
