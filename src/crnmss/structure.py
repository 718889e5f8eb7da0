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
    smallest member.  Tarjan's depth-first search (SIAM J. Comput. 1,
    1972) on an explicit stack, so the work is linear in the graph and no
    depth of path overflows Python's recursion limit.
    """
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v in edges:
        adj[u].append(v)
    # order[v] is -1 until v is found, then its discovery number, then
    # num_nodes once its component is out, above every lowlink
    order = [-1] * num_nodes
    low = [0] * num_nodes
    stack: list[int] = []
    comps = []
    count = 0
    for root in range(num_nodes):
        if order[root] != -1:
            continue
        order[root] = low[root] = count
        count += 1
        # the search path: each node, its unread successors, its place on stack
        path = [(root, iter(adj[root]), len(stack))]
        stack.append(root)
        while path:
            u, succ, at = path[-1]
            for v in succ:
                if order[v] == -1:
                    order[v] = low[v] = count
                    count += 1
                    path.append((v, iter(adj[v]), len(stack)))
                    stack.append(v)
                    break
                if order[v] < low[u]:
                    low[u] = order[v]
            else:
                path.pop()
                if low[u] == order[u]:
                    comp = stack[at:]
                    del stack[at:]
                    for v in comp:
                        order[v] = num_nodes
                    comps.append(sorted(comp))
                else:  # u is not a root, so it has a parent on the path
                    parent = path[-1][0]
                    if low[u] < low[parent]:
                        low[parent] = low[u]
    comps.sort()
    return comps


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
    index = {cpx.items: i for i, cpx in enumerate(net.complexes())}
    p = len(index)
    edges = [(index[rxn.reactant.items], index[rxn.product.items]) for rxn in net.reactions]
    strong = strong_components(p, edges)
    linkage = strong_components(p, edges + [(v, u) for u, v in edges])
    l = len(linkage)
    comp_of = {node: ci for ci, comp in enumerate(strong) for node in comp}
    exits = {comp_of[u] for u, v in edges if comp_of[u] != comp_of[v]}
    applicable = len(strong) - len(exits) == l  # one terminal class per linkage class

    total = per_class = None
    if applicable:
        total = p - l - data.rank
        if l == 1:  # the one class is the whole network, ranked already
            per_class = (total,)
        else:
            # each reaction joins the class of its reactant, and a class's
            # reaction vectors are zero off the species its complexes use
            class_of = {node: ci for ci, lc in enumerate(linkage) for node in lc}
            cols: list[list[int]] = [[] for _ in linkage]
            used: list[set[int]] = [set() for _ in linkage]
            for j, rxn in enumerate(net.reactions):
                ci = class_of[edges[j][0]]
                cols[ci].append(j)
                used[ci].update(rxn.reactant.support + rxn.product.support)
            gamma = data.stoich_matrix
            per_class = tuple(
                len(lc) - 1 - rank_int([[gamma[i][j] for j in js] for i in sorted(species)])
                for lc, js, species in zip(linkage, cols, used)
            )
    return DeficiencyReport(
        applicable=applicable,
        total=total,
        per_class=per_class,
        num_complexes=p,
        num_linkage_classes=l,
        rank=data.rank,
        weakly_reversible=not exits,
    )
