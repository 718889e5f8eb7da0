"""Embedded networks: restriction, flows, square embedded networks, matching.

Restricting a reaction to a species subset zeroes the coefficients of all
other species; coefficients of kept species are unchanged.  An embedded
network is produced by removing reactions, restricting what is left to
the kept species, discarding trivial and duplicate reactions, and then
dropping species that no longer appear anywhere.

A square embedded network (SEN) pairs k reactions with k species such
that the restrictions are k pairwise distinct nontrivial reactions.  Its
orientation is the product of two k x k determinants: reactant columns,
and reactant-minus-product columns.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .linalg import det_int
from .network import Complex, Reaction, ReactionNetwork


def restrict_reaction(rxn: Reaction, kept: Iterable[int]) -> Reaction | None:
    """Restriction to kept species, or None when it collapses to triviality."""
    keep = set(kept)  # one set for both complexes
    reactant = rxn.reactant.restrict(keep)
    product = rxn.product.restrict(keep)
    if reactant == product:
        return None
    return Reaction(reactant, product)


def restrict_reactions(reactions: Sequence[Reaction], kept: Iterable[int]) -> list[Reaction]:
    """Restrict each reaction; drop trivial results and duplicates (keep first)."""
    keep = frozenset(kept)
    restricted = dict.fromkeys(restrict_reaction(rxn, keep) for rxn in reactions)
    return [res for res in restricted if res is not None]


def embedded_network(
    net: ReactionNetwork, *, reactions: Iterable[int] = (), species: Iterable[int] = ()
) -> ReactionNetwork:
    """The network embedded in ``net`` by removing the given reaction and species indices.

    Species are renumbered densely but keep their names, so results from
    different removals compare by name.
    """
    reactions, species = frozenset(reactions), frozenset(species)
    for ridx in reactions:
        if not 0 <= ridx < net.num_reactions:
            raise ValueError(f"reaction index {ridx} out of range")
    for sidx in species:
        if not 0 <= sidx < net.num_species:
            raise ValueError(f"species index {sidx} out of range")
    kept_reactions = [rxn for i, rxn in enumerate(net.reactions) if i not in reactions]
    kept_species = [i for i in range(net.num_species) if i not in species]
    return net.subnetwork(restrict_reactions(kept_reactions, kept_species))


def non_flow_subnetwork(net: ReactionNetwork) -> ReactionNetwork:
    """Remove inflow and outflow reactions (and any species they orphan).

    The result is ``net.non_flow``, built once per network."""
    return net.non_flow


def fully_open_extension(net: ReactionNetwork) -> ReactionNetwork:
    """Add the missing inflow 0 -> X and outflow X -> 0 for every species,
    in species order, each inflow before its outflow."""
    flows, zero = net.flows, Complex(())
    reactions = list(net.reactions)
    for i in range(net.num_species):
        mono = Complex.of({i: 1})
        if i not in flows.inflows:
            reactions.append(Reaction(zero, mono))
        if i not in flows.outflows:
            reactions.append(Reaction(mono, zero))
    return ReactionNetwork(net.species, tuple(reactions))


def is_cfstr(net: ReactionNetwork) -> bool:
    """True iff every species has its outflow X -> 0 (and there is a species)."""
    return 0 < net.num_species == len(net.flows.outflows)


def is_fully_open(net: ReactionNetwork) -> bool:
    """True iff every species has both its inflow and its outflow."""
    return 0 < net.num_species == len(net.flows.inflows) == len(net.flows.outflows)


def _intermediate_complex(net: ReactionNetwork, species_idx: int) -> Complex:
    """The complex {X} when X qualifies as an intermediate, else ValueError."""
    mono = Complex.of({species_idx: 1})
    complexes = net.complexes()
    if mono not in complexes:
        raise ValueError(
            f"species {net.species[species_idx]} is not an intermediate: "
            "no complex consisting of it alone"
        )
    for cpx in complexes:
        if cpx != mono and cpx.coeff(species_idx) != 0:
            raise ValueError(
                f"species {net.species[species_idx]} is not an intermediate: "
                "it appears in another complex"
            )
    return mono


def remove_intermediates(net: ReactionNetwork, species: Iterable[int]) -> ReactionNetwork:
    """Contract away intermediate species (total molecularity one).

    Each complex {X} is removed and every path C' -> {X} -> C'' is replaced
    by C' -> C''; duplicates and self-contractions are dropped.  Chains of
    intermediates contract through.
    """
    targets = sorted(set(species))
    for idx in targets:
        if not 0 <= idx < net.num_species:
            raise ValueError(f"species index {idx} out of range")
        _intermediate_complex(net, idx)
    reactions = list(net.reactions)
    for idx in targets:
        mono = Complex.of({idx: 1})
        incoming = [r for r in reactions if r.product == mono]
        outgoing = [r for r in reactions if r.reactant == mono]
        keep = [r for r in reactions if r.product != mono and r.reactant != mono]
        seen = set(keep)
        for a in incoming:
            for b in outgoing:
                if a.reactant == b.product:
                    continue
                new = Reaction(a.reactant, b.product)
                if new not in seen:
                    seen.add(new)
                    keep.append(new)
        reactions = keep
    return net.subnetwork(reactions)


@dataclass(frozen=True)
class SquareEmbeddedNetwork:
    """k host reactions restricted to k species, all restrictions distinct."""

    host: ReactionNetwork
    reaction_indices: tuple[int, ...]
    species_indices: tuple[int, ...]
    reactions: tuple[Reaction, ...]  # restricted, still in host species indexing

    def species_names(self) -> tuple[str, ...]:
        return tuple(self.host.species[i] for i in self.species_indices)


def orientation(sen: SquareEmbeddedNetwork) -> int:
    """det[reactant columns] * det[reactant - product columns] (exact).

    Restriction keeps the coefficients of the kept species, so the entries
    are read from the host's cached ``stoich_data``."""
    data = sen.host.stoich_data
    reactant, gamma = data.reactant_matrix, data.stoich_matrix
    rows, rxns = sen.species_indices, sen.reaction_indices
    reactant_mat = [[reactant[j][i] for j in rxns] for i in rows]
    diff_mat = [[-gamma[i][j] for j in rxns] for i in rows]
    return det_int(reactant_mat) * det_int(diff_mat)


# Work bound of one square embedded network scan: species subsets plus
# reaction combinations formed.  The largest benchmark scan, fully open
# K(2,10), needs 1,024.
WORK_LIMIT = 1_000_000


class LimitExceeded(RuntimeError):
    """An enumeration was refused because its size bound was exceeded."""


def enumerate_sens(
    net: ReactionNetwork,
    sizes: Iterable[int],
    admit: Callable[[Reaction], bool] | None = None,
) -> Iterator[SquareEmbeddedNetwork]:
    """The square embedded networks of each size in ``sizes``, in turn.

    Within a size k the order is lexicographic in (reactions, species).
    Each species subset gives at most one stream: the k-combinations of the
    nontrivial restrictions to the subset that ``admit`` accepts (all of
    them without ``admit``) are yielded in lexicographic reaction order
    when they are pairwise distinct.  ``heapq.merge`` joins the streams
    by (reaction_indices, species_indices).  A SEN is left out exactly
    when ``admit`` rejects one of its restrictions.  With k equal to the
    number of species, as in determinant optimization, there is a single
    stream.  A size outside 1..min(reactions, species) yields nothing.

    A reaction's restriction to a subset depends only on the subset's
    meet with the reaction's support, not on the size, so each
    restriction is made, and ``admit`` asked, once per (reaction, meet)
    in the whole scan, across all of its sizes.  A reaction whose support
    misses the subset restricts to nothing and is skipped.

    The work bound holds for each size on its own.  One unit of work is a
    species subset or a reaction combination formed, duplicates included;
    past ``WORK_LIMIT`` units within one size the scan raises
    ``LimitExceeded``.  Each subset's admitted restrictions are listed up
    front, and only a subset with at least k of them gets a stream; a size
    with more than ``WORK_LIMIT`` subsets is refused before any of its
    subsets is listed.  A size is checked only when its turn comes, so
    every SEN of the sizes before it has been yielded by then.
    """
    # supports[i]: bitmask of the species reaction i uses; memo[i]: support
    # meet -> reaction i restricted to it, or None when that is trivial or
    # admit rejects it
    supports = []
    for rxn in net.reactions:
        mask = 0
        for idx, _ in rxn.reactant.items + rxn.product.items:
            mask |= 1 << idx
        supports.append(mask)
    memo: list[dict[int, Reaction | None]] = [{} for _ in supports]

    def admitted(sp_subset: tuple[int, ...]) -> list[tuple[int, Reaction]]:
        mask = 0
        for idx in sp_subset:
            mask |= 1 << idx
        candidates = []
        for i, support in enumerate(supports):
            meet = support & mask
            if not meet:
                continue
            by_meet = memo[i]
            if meet in by_meet:
                res = by_meet[meet]
            else:
                res = restrict_reaction(net.reactions[i], sp_subset)
                if res is not None and admit is not None and not admit(res):
                    res = None
                by_meet[meet] = res
            if res is not None:
                candidates.append((i, res))
        return candidates

    for k in sizes:
        if 1 <= k <= min(net.num_reactions, net.num_species):
            yield from _sens_of_size(net, k, admitted)


def _sens_of_size(
    net: ReactionNetwork,
    k: int,
    admitted: Callable[[tuple[int, ...]], list[tuple[int, Reaction]]],
) -> Iterator[SquareEmbeddedNetwork]:
    """The size-k part of ``enumerate_sens``, with its own work count."""
    refusal = f"square embedded network scan exceeds the work bound {WORK_LIMIT}"
    # every species subset is listed before any stream forms a combination,
    # so the subsets' units are counted at once, within the bound
    work = math.comb(net.num_species, k)
    if work > WORK_LIMIT:
        raise LimitExceeded(refusal)

    def spend() -> None:
        nonlocal work
        work += 1
        if work > WORK_LIMIT:
            raise LimitExceeded(refusal)

    def stream(sp_subset: tuple[int, ...], candidates: list[tuple[int, Reaction]]):
        for combo in itertools.combinations(candidates, k):
            spend()
            restricted = tuple(res for _, res in combo)
            if len(set(restricted)) == k:
                yield tuple(i for i, _ in combo), sp_subset, restricted

    streams = []
    for sp_subset in itertools.combinations(range(net.num_species), k):
        candidates = admitted(sp_subset)
        if len(candidates) >= k:
            streams.append(stream(sp_subset, candidates))
    # (reaction_indices, species_indices) never repeats across streams, so
    # the merge never compares the restricted reactions themselves
    for rxn_subset, sp_subset, restricted in heapq.merge(*streams):
        yield SquareEmbeddedNetwork(net, rxn_subset, sp_subset, restricted)


def total_molecularity(net: ReactionNetwork, species_idx: int) -> int:
    """Sum of the species' coefficients over non-flow reactions.

    A reversible pair y -> y', y' -> y contributes once (the pair is one
    reaction listed with a double arrow when the network is written down),
    so the sum runs over the distinct complex pairs.
    """
    if not 0 <= species_idx < net.num_species:
        raise ValueError(f"species index {species_idx} out of range")
    pairs = {frozenset(net.reactions[j].complexes()) for j in net.flows.non_flow}
    return sum(c.coeff(species_idx) for pair in pairs for c in pair)


def irrelevant_alone(rxn: Reaction) -> str | None:
    """Why any network containing this reaction is not relevant, or None.

    A (generalized) inflow, whose reactant is zero, or a (generalized)
    outflow, whose reactant is one species that the product holds no more
    of and no other species, disqualifies a network on its own.
    """
    if rxn.reactant.is_zero:
        return "contains an inflow or generalized inflow reaction"
    support = rxn.reactant.support
    if len(support) == 1:
        i = support[0]
        if all(idx == i for idx, _ in rxn.product.items) and rxn.product.coeff(
            i
        ) <= rxn.reactant.coeff(i):
            return "contains an outflow or generalized outflow reaction"
    return None


def _relevance(
    reactions: Sequence[Reaction], species_indices: Sequence[int]
) -> tuple[bool, str | None]:
    """Shared relevance check over an explicit species index list."""
    for rxn in reactions:
        reason = irrelevant_alone(rxn)
        if reason is not None:
            return False, reason
    have = set(reactions)
    for rxn in reactions:
        if rxn.reversed_() in have:
            return False, "contains a reversible pair of reactions"
    # Complexes are counted per occurrence: each reaction contributes its
    # reactant and its product complex, even when the same complex recurs
    # in another reaction.  Distinct-complex counting would wrongly discard
    # square embedded networks that chain through a shared complex.
    occurrences = [cpx for rxn in reactions for cpx in rxn.complexes()]
    for idx in species_indices:
        appearing = sum(1 for cpx in occurrences if cpx.coeff(idx) != 0)
        if appearing < 2:
            return False, "a species appears in fewer than two complexes"
        if not any(rxn.reactant.coeff(idx) != 0 for rxn in reactions):
            return False, "a species appears in no reactant complex"
    # flows and reverse pairs are rejected above, so no pair needs merging
    best = 0
    for idx in species_indices:
        tm = sum(r.reactant.coeff(idx) + r.product.coeff(idx) for r in reactions)
        best = max(best, tm)
    if best < 3:
        return False, "maximum total molecularity is below three"
    return True, None


def is_relevant(net: ReactionNetwork) -> tuple[bool, str | None]:
    """Relevance of a network; (True, None) or (False, first failed condition)."""
    return _relevance(net.reactions, range(net.num_species))


def sen_is_relevant(sen: SquareEmbeddedNetwork) -> tuple[bool, str | None]:
    return _relevance(sen.reactions, sen.species_indices)


@dataclass(frozen=True)
class EmbeddingWitness:
    """pattern species i maps to host species species_map[i]; pattern
    reaction j is realized by host reaction reaction_map[j]."""

    species_map: tuple[int, ...]
    reaction_map: tuple[int, ...]


def verify_embedding(
    pattern: ReactionNetwork, host: ReactionNetwork, witness: EmbeddingWitness
) -> bool:
    if len(witness.species_map) != pattern.num_species:
        return False
    if len(set(witness.species_map)) != len(witness.species_map):
        return False
    if len(witness.reaction_map) != pattern.num_reactions:
        return False
    image = set(witness.species_map)
    back = {h: p for p, h in enumerate(witness.species_map)}
    for rxn_p, host_idx in zip(pattern.reactions, witness.reaction_map):
        if not 0 <= host_idx < host.num_reactions:
            return False
        restricted = restrict_reaction(host.reactions[host_idx], image)
        if restricted is None:
            return False
        renamed = Reaction(restricted.reactant.rename(back), restricted.product.rename(back))
        if renamed != rxn_p:
            return False
    return True


def find_embedding(pattern: ReactionNetwork, host: ReactionNetwork) -> EmbeddingWitness | None:
    """Search for an embedding of ``pattern`` into ``host``.

    Matching is up to species renaming.  The returned witness is the
    lexicographically least assignment (pattern species in index order,
    host candidates ascending), with each pattern reaction realized by the
    smallest-index host reaction.

    Each pattern reaction carries an integer bitmask of the host reactions
    that still match it; assigning pattern species q to host species h
    ANDs in the mask that ``host.column_masks[h]`` holds for that pattern
    reaction's coefficients on q, and an empty mask prunes the branch.
    """
    ps, hs = pattern.num_species, host.num_species
    if ps > hs or pattern.num_reactions > host.num_reactions:
        return None

    host_masks, pattern_col = host.column_masks, pattern.columns

    def extend(image: tuple[int, ...], agree: list[int]) -> EmbeddingWitness | None:
        # bit j of agree[p]: host reaction j matches pattern reaction p on
        # every pattern species assigned so far
        q = len(image)
        if q == ps:
            # the lowest set bit is the smallest-index host reaction
            return EmbeddingWitness(image, tuple((m & -m).bit_length() - 1 for m in agree))
        for h in range(hs):
            if h in image:
                continue
            by_key = host_masks[h]
            narrowed = []
            for m, want in zip(agree, pattern_col[q]):
                m &= by_key.get(want, 0)
                if not m:
                    break
                narrowed.append(m)
            else:
                found = extend(image + (h,), narrowed)
                if found is not None:
                    return found
        return None

    witness = extend((), [(1 << host.num_reactions) - 1] * pattern.num_reactions)
    assert witness is None or verify_embedding(pattern, host, witness)
    return witness
