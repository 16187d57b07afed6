"""Isomorph-free exhaustive generation of small graphs.

Generation is by canonical augmentation (McKay, "Isomorph-free exhaustive
generation", 1998).  Each parent g, one per class, tries one mask per
Aut(g)-orbit as the neighbourhood of a new vertex, and a child is accepted
iff its new vertex lies in the Aut(child)-orbit of its canonically-last
vertex.  The automorphism generators ``canonical_labeling`` returns
generate the whole group, so the rule is exact: an isomorphism between two
accepted children can be chosen to map new vertex to new vertex.  It then
restricts to an isomorphism of their parents, which are therefore the same
graph g, and to an automorphism of g mapping one mask to the other; but
only one mask per orbit is tried.  Each isomorphism class therefore appears
exactly once globally.

Hereditary filters prune the search tree safely because a filtered class's
canonical parent also passes the filter.  One depth-first walk of the tree
yields every order up to the highest asked for; the single-order streams
are read off it.

Every filter meets one contract (``GenerationFilter``): its candidate
masks are the only neighbourhoods tried for the new vertex, and ``accepts``
then checks only what that vertex adds to a passing parent.

The canonically-last vertex always has maximum degree, so a mask whose new
vertex would not have the child's maximum degree is rejected before orbit
pruning, the filter and labeling.  It also lies in the last cell of the
child's refined unit partition, a union of Aut(child)-orbits, so one
refinement rejects a child whose new vertex is outside that cell and, at
the last order of a walk, accepts one whose new vertex is alone in it;
only the rest are labeled.  This changes neither which representative is
emitted nor the order of the stream.
"""

from __future__ import annotations

import math
from multiprocessing import get_context
from typing import Iterable, Iterator

from .canon import _refine, canonical_labeling, orbit_closure
from .graphs import Graph, add_vertex, bits, empty_graph

_PARALLEL_SPLIT_ORDER = 5


class GenerationFilter:
    """A hereditary class of graphs, i.e. one closed under vertex deletion,
    that prunes generation: a graph is reached only through ancestors in
    the class.  K_1 is in every class.

    ``candidate_masks(g)`` lists the neighbourhoods tried for the new
    vertex of a passing parent g, in the order tried.  The list is
    Aut(g)-invariant and holds every mask whose child passes.
    ``accepts(child)`` is asked only about a child built from a listed
    mask, whose new vertex is the last one, and checks only what that
    vertex adds.  By default every mask is listed and every child passes.
    """

    def candidate_masks(self, g: Graph) -> Iterable[int]:
        return range(1 << g.order)

    def accepts(self, child: Graph) -> bool:
        return True


class K2nFreeFilter(GenerationFilter):
    """K_{2,n}-free graphs; the candidate masks are exactly the masks
    whose child passes."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n

    def candidate_masks(self, g: Graph) -> Iterable[int]:
        """Masks S keeping the extension K_{2,n}-free, in increasing
        lexicographic order of their vertex lists.

        The new vertex w creates a K_{2,n} only through pairs inside S
        (their common count grows by one) or pairs (w, u) with
        |S & N(u)| >= n.  So once u has n-1 neighbours in S, N(u) leaves
        the vertices S may still take.
        """
        n = self.n
        adj = g.adj
        k = g.order
        # pairs allowed to coexist in S
        ok = [0] * k
        for u in range(k):
            for v in range(u + 1, k):
                if (adj[u] & adj[v]).bit_count() <= n - 2:
                    ok[u] |= 1 << v

        out: list[int] = []

        def rec(mask: int, allowed: int, start: int, hits: list[int]) -> None:
            # hits[j]: the vertices with more than j neighbours in mask
            out.append(mask)
            for v in bits(allowed & ~((1 << start) - 1)):
                rest = allowed & ok[v]
                grown = hits
                if hits:
                    nbrs = adj[v]
                    grown = [hits[0] | nbrs]
                    for j in range(1, n - 1):
                        grown.append(hits[j] | (hits[j - 1] & nbrs))
                    for u in bits(grown[-1] & ~hits[-1]):
                        rest &= ~adj[u]
                rec(mask | (1 << v), rest, v + 1, grown)

        allowed = (1 << k) - 1
        if n == 1:  # every vertex already has its n-1 = 0 neighbours in S
            for row in adj:
                allowed &= ~row
        rec(0, allowed, 0, [0] * (n - 1))
        return out


ALL_GRAPHS = GenerationFilter()


def _orbit_min(mask: int, gens: list[tuple[int, ...]]) -> set[int]:
    """The orbit of ``mask`` under the group that ``gens`` generates.

    The benchmark tracer counts the orbits expanded under this name.
    """
    orbit = {mask}
    frontier = [mask]
    while frontier:
        m = frontier.pop()
        for a in gens:
            im = 0
            mm = m
            while mm:
                low = mm & -mm
                im |= 1 << a[low.bit_length() - 1]
                mm ^= low
            if im not in orbit:
                orbit.add(im)
                frontier.append(im)
    return orbit


def _children(
    g: Graph, auts: list[tuple[int, ...]], flt: GenerationFilter,
    leaves: bool = False,
) -> Iterator[tuple[Graph, list[tuple[int, ...]] | None]]:
    """Accepted one-vertex extensions of g (exactly one per class), each
    with the generators of its automorphism group.  With ``leaves`` the
    caller reads no generators, so a child that one refinement accepts is
    not labeled and comes with None."""
    k = g.order
    # The canonically-last vertex has the child's maximum degree, so only a
    # new vertex of maximum degree can lie in its orbit: |s| above every
    # degree of g, or equal to the top degree D with no degree-D vertex of g
    # in s.  The test is invariant under Aut(g) and only drops masks whose
    # child fails the orbit rule, so the accepted children and their order
    # are unchanged.
    degrees = [row.bit_count() for row in g.adj]
    top = max(degrees)
    top_mask = sum(1 << v for v, d in enumerate(degrees) if d == top)
    seen_orbit: set[int] = set()
    for s in flt.candidate_masks(g):
        size = s.bit_count()
        if size < top or (size == top and s & top_mask):
            continue
        # Masks in one Aut(g)-orbit give isomorphic children: expand the
        # orbit at its first mask and skip the rest.  The pretest and the
        # candidate masks are Aut(g)-invariant, so the orbit stays inside
        # the masks this loop visits, and the filter rejects an orbit whole.
        if auts:
            if s in seen_orbit:
                continue
            seen_orbit |= _orbit_min(s, auts)
        child = add_vertex(g, s)
        if not flt.accepts(child):
            continue
        # McKay's rule: the new vertex k must lie in the orbit of the
        # canonically-last vertex under the whole of Aut(child).  That
        # vertex lies in the last refined cell, a union of orbits, so k
        # outside the cell fails the rule and k alone in it passes.
        base = _refine(child.adj, [list(range(k + 1))])
        last = base[-1]
        if k not in last:
            continue
        if leaves and len(last) == 1:
            yield child, None
            continue
        perm, _, cauts = canonical_labeling(child, base)
        if k not in orbit_closure((perm[-1],), cauts):
            continue
        yield child, cauts


def _walk(
    g: Graph, auts: list[tuple[int, ...]], order: int, flt: GenerationFilter,
    seeds: bool = False,
) -> Iterator[tuple[Graph, list[tuple[int, ...]] | None]]:
    """g, then its accepted descendants up to ``order``, depth first, each
    with the generators of its automorphism group.  A descendant of order
    ``order`` may come with None instead, unless ``seeds`` asks for the
    generators of every node."""
    yield g, auts
    if g.order < order:
        leaves = g.order + 1 == order and not seeds
        for child, cauts in _children(g, auts, flt, leaves):
            yield from _walk(child, cauts, order, flt, seeds)


def _parallel_task(
    args: tuple[Graph, list[tuple[int, ...]], int, int, GenerationFilter]
) -> list[Graph]:
    seed, auts, lowest, highest, flt = args
    return [g for g, _ in _walk(seed, auts, highest, flt) if g.order >= lowest]


def enumerate_orders(
    lowest: int, highest: int, flt: GenerationFilter = ALL_GRAPHS,
    workers: int = 1,
) -> Iterator[Graph]:
    """One representative per isomorphism class passing the filter, of
    every order from ``lowest`` to ``highest`` (none if ``highest`` is
    below ``lowest``), in one walk of the tree.

    Graphs come in depth-first order, a parent before its children, and
    are streamed, never materialized.  With more than one worker the tree
    is split at the seed order and the seeds' subtrees are walked in worker
    processes; ``imap`` keeps the seeds' order, so the sequence is the same
    for any worker count.  Filters must be picklable.
    """
    if lowest < 1:
        raise ValueError("order must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if highest < lowest:
        return
    g1 = empty_graph(1)  # its automorphism group is trivial: no generators
    if workers == 1 or highest <= _PARALLEL_SPLIT_ORDER + 1:
        for g, _ in _walk(g1, [], highest, flt):
            if g.order >= lowest:
                yield g
        return
    # the seeds travel to the workers with their generators
    top = list(_walk(g1, [], _PARALLEL_SPLIT_ORDER, flt, seeds=True))
    seeds = [(g, auts, lowest, highest, flt) for g, auts in top
             if g.order == _PARALLEL_SPLIT_ORDER]
    if not seeds:  # the filter ends the tree below the seed order
        yield from (g for g, _ in top if g.order >= lowest)
        return
    with get_context("fork").Pool(min(workers, len(seeds))) as pool:
        subtrees = pool.imap(_parallel_task, seeds)
        for g, _ in top:
            if g.order < _PARALLEL_SPLIT_ORDER:
                if g.order >= lowest:
                    yield g
            else:  # a seed: its subtree, itself first
                yield from next(subtrees)


def enumerate_parallel(
    order: int, flt: GenerationFilter = ALL_GRAPHS, workers: int = 1
) -> Iterator[Graph]:
    """``enumerate_orders(order, order, flt, workers)``."""
    return enumerate_orders(order, order, flt, workers)


# Independent counting oracle (no generation involved).

def _partitions(n: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def unlabeled_graph_count(n: int) -> int:
    """Number of isomorphism classes of simple graphs on n vertices.

    Burnside's lemma over the symmetric group acting on vertex pairs:
    for a permutation of cycle type L, the number of edge orbits is
    sum gcd(a,b) over cycle pairs plus sum floor(a/2) per cycle.
    """
    total = 0
    for part in _partitions(n):
        mult: dict[int, int] = {}
        for a in part:
            mult[a] = mult.get(a, 0) + 1
        perms = math.factorial(n)
        for a, m in mult.items():
            perms //= a**m * math.factorial(m)
        orbits = sum(a // 2 for a in part)
        for i, a in enumerate(part):
            for b in part[i + 1:]:
                orbits += math.gcd(a, b)
        total += perms * (1 << orbits)
    return total // math.factorial(n)
