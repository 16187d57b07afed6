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
then checks only what that vertex adds to a passing parent, reading the
child's adjacency rows.  A filter may also name, for each order, a least
degree that every passing graph of that order has at some vertex, and then
need not list the smaller masks.

The canonically-last vertex always has maximum degree, so a mask whose new
vertex would not have the child's maximum degree is rejected before orbit
pruning, the filter and labeling.  It also lies in the last cell of the
child's refined unit partition, a union of Aut(child)-orbits, so one
refinement rejects a child whose new vertex is outside that cell and
accepts one whose new vertex is alone in it; only the rest are labeled.
Cells only split in place, so the refinement of a child stops at the first
round that leaves the new vertex outside the last cell; a kept child's
refinement is always the full one.  A child accepted unlabeled carries
that refinement and is labeled from it where its first mask passes the
degree pretest, so a node none of whose masks passes, a leaf of the walk
among them, never is, and no graph's unit partition is refined twice.
The walk's leaves, the children of its highest order, are only settled:
their refinement also stops once the new vertex is alone in the last
cell, since a singleton cell stays alone and last.  A leaf that shares its
last cell was never alone in it, so it is labeled from the full
refinement as before, and no leaf's refinement is used again.  The walk
that picks a parallel run's seeds does not settle them, since each seed
is expanded in its worker.  None of this changes which representative is
emitted or the order of the stream.

Inside generation a graph is only its tuple of neighbour bitmasks, as
``Graph.adj`` would hold them: the filters, the refinement and the
labeling all read rows.  ``enumerate_orders`` builds one ``Graph`` per
graph it yields, in the process that yields it, so ``Graph`` still
validates every graph that leaves generation, and nothing else is built.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from .canon import _refine, canonical_labeling, orbit_closure
from .graphs import Graph

_PARALLEL_SPLIT_ORDER = 5


class GenerationFilter:
    """A hereditary class of graphs, i.e. one closed under vertex deletion,
    that prunes generation: a graph is reached only through ancestors in
    the class.  K_1 is in every class.

    Both hooks read a graph's neighbour bitmasks, as ``Graph.adj`` would
    hold them; no ``Graph`` is built for either.  ``least_degree(order)``
    is at most the maximum degree of every passing graph of that order;
    only a new vertex of the child's maximum degree can be accepted, so
    a smaller mask need not be tried.  ``candidate_masks(adj, least)``
    lists the neighbourhoods tried for the new vertex of a passing parent
    g with rows ``adj``, in the order tried.  The list is Aut(g)-invariant
    and holds every mask of at least ``least`` vertices whose child
    passes.  ``accepts(rows)`` is asked only about a child built from a
    listed mask, new vertex last, and checks only what that vertex adds.
    By default the least degree is 0, every mask is listed and every child
    passes.
    """

    def least_degree(self, order: int) -> int:
        return 0

    def candidate_masks(self, adj: tuple[int, ...],
                        least: int = 0) -> Iterable[int]:
        return range(1 << len(adj))

    def accepts(self, rows: tuple[int, ...]) -> bool:
        return True


class K2nFreeFilter(GenerationFilter):
    """K_{2,n}-free graphs; the candidate masks are exactly the masks
    whose child passes."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n

    def candidate_masks(self, adj: tuple[int, ...],
                        least: int = 0) -> Iterable[int]:
        """Masks S of at least ``least`` vertices keeping the extension
        K_{2,n}-free, in increasing lexicographic order of their vertex
        lists.

        The new vertex w creates a K_{2,n} only through pairs inside S
        (their common count grows by one) or pairs (w, u) with
        |S & N(u)| >= n.  So a vertex v joins S only if it may coexist
        with every vertex already there, and then every neighbour u of v
        with |S & N(u)| >= n - 1 takes N(u) out of the vertices S may
        still take.  A branch stops once S and the vertices it may still
        take from ``start`` upward fall short of ``least``.
        """
        n = self.n
        k = len(adj)
        # pairs allowed to coexist in S
        ok = [0] * k
        for u in range(k):
            for v in range(u + 1, k):
                if (adj[u] & adj[v]).bit_count() <= n - 2:
                    ok[u] |= 1 << v

        out: list[int] = []

        def rec(mask: int, size: int, allowed: int, start: int) -> None:
            todo = allowed & ~((1 << start) - 1)
            if size >= least:
                out.append(mask)
            elif size + todo.bit_count() < least:
                return
            while todo:
                low = todo & -todo
                todo ^= low
                v = low.bit_length() - 1
                grown = mask | low
                rest = allowed & ok[v]
                nbrs = adj[v]
                while nbrs:
                    ulow = nbrs & -nbrs
                    nbrs ^= ulow
                    row = adj[ulow.bit_length() - 1]
                    if (grown & row).bit_count() >= n - 1:
                        rest &= ~row
                rec(grown, size + 1, rest, v + 1)

        allowed = (1 << k) - 1
        if n == 1:  # every vertex already has its n-1 = 0 neighbours in S
            for row in adj:
                allowed &= ~row
        rec(0, 0, allowed, 0)
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


# A node of the walk: a graph's rows, the generators of its automorphism
# group or None if it is not labeled yet, and its refined unit partition.
_Node = tuple[tuple[int, ...], list[tuple[int, ...]] | None, list[list[int]]]


def _children(adj: tuple[int, ...], auts: list[tuple[int, ...]] | None,
              base: list[list[int]], flt: GenerationFilter,
              settle: bool = False) -> Iterator[_Node]:
    """The accepted one-vertex extensions of the node (adj, auts, base),
    exactly one per class; one that a refinement alone accepts is not
    labeled.  If ``auts`` is None, the node is labeled here from ``base``
    once its first mask passes the degree pretest.

    With ``settle`` the children are only settled, as leaves of the walk
    that are never expanded: a child's refinement also stops once the new
    vertex is alone in the last cell.  The children accepted are the same,
    but one accepted unlabeled may carry a partial refinement, which must
    never be labeled from or expanded."""
    k = len(adj)
    new_bit = 1 << k
    # The canonically-last vertex has the child's maximum degree, so only a
    # new vertex of maximum degree can lie in its orbit: |s| above every
    # degree of g, or equal to the top degree D with no degree-D vertex of g
    # in s.  The test is invariant under Aut(g) and only drops masks whose
    # child fails the orbit rule, so the accepted children and their order
    # are unchanged.  A mask below the filter's least degree is not listed:
    # its child either fails the filter or fails this test.
    degrees = [row.bit_count() for row in adj]
    top = max(degrees)
    top_mask = sum(1 << v for v, d in enumerate(degrees) if d == top)
    seen_orbit: set[int] = set()
    for s in flt.candidate_masks(adj, flt.least_degree(k + 1)):
        size = s.bit_count()
        if size < top or (size == top and s & top_mask):
            continue
        if auts is None:
            auts = canonical_labeling(adj, base)[2]
        # Masks in one Aut(g)-orbit give isomorphic children: expand the
        # orbit at its first mask and skip the rest.  The pretest and the
        # candidate masks are Aut(g)-invariant, so the orbit stays inside
        # the masks this loop visits, and the filter rejects an orbit whole.
        if auts:
            if s in seen_orbit:
                continue
            seen_orbit |= _orbit_min(s, auts)
        # the child's rows, new vertex last
        rows = list(adj)
        m = s
        while m:
            low = m & -m
            rows[low.bit_length() - 1] |= new_bit
            m ^= low
        rows.append(s)
        rows = tuple(rows)
        if not flt.accepts(rows):
            continue
        # McKay's rule: the new vertex k must lie in the orbit of the
        # canonically-last vertex under the whole of Aut(child).  That
        # vertex lies in the last refined cell, a union of orbits, so k
        # outside the cell fails the rule and k alone in it passes; the
        # refinement stops once k leaves the last cell, or for a leaf once
        # k is alone in it; a shared child's refinement is the full one.
        cbase = _refine(rows, [list(range(k + 1))], [(new_bit << 1) - 1], k,
                        settle)
        last = cbase[-1]
        if k not in last:
            continue
        if len(last) == 1:
            yield rows, None, cbase
            continue
        perm, _, cauts = canonical_labeling(rows, cbase)
        if k not in orbit_closure((perm[-1],), cauts):
            continue
        yield rows, cauts, cbase


def _walk(adj: tuple[int, ...], auts: list[tuple[int, ...]] | None,
          base: list[list[int]], order: int, flt: GenerationFilter,
          settle: bool = True) -> Iterator[_Node]:
    """The node (adj, auts, base), then its accepted descendants up to
    ``order``, depth first, as ``_children`` gives them.

    With ``settle`` the descendants of order ``order`` are settled as
    leaves, so one yielded unlabeled may carry a partial refinement; a
    walk whose last nodes are expanded later walks without it."""
    yield adj, auts, base
    k = len(adj)
    if k < order - 1:
        for child, cauts, cbase in _children(adj, auts, base, flt):
            yield from _walk(child, cauts, cbase, order, flt, settle)
    elif k < order:
        yield from _children(adj, auts, base, flt, settle)


def _parallel_task(
    args: tuple[tuple[int, ...], list[tuple[int, ...]] | None,
                list[list[int]], int, int, GenerationFilter]
) -> list[tuple[int, ...]]:
    seed, auts, base, lowest, highest, flt = args
    return [adj for adj, _, _ in _walk(seed, auts, base, highest, flt)
            if len(adj) >= lowest]


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
    # K_1: its automorphism group is trivial, so it has no generators
    root = ((0,), [], [[0]])
    if workers == 1 or highest <= _PARALLEL_SPLIT_ORDER + 1:
        stream = (adj for adj, _, _ in _walk(*root, highest, flt))
    else:
        stream = _split_walk(root, lowest, highest, flt, workers)
    for adj in stream:
        if len(adj) >= lowest:
            yield Graph(len(adj), adj)


def _split_walk(root: _Node, lowest: int, highest: int,
                flt: GenerationFilter, workers: int) -> Iterator[tuple[int, ...]]:
    """The rows ``_walk`` gives from ``root`` up to ``highest``, in its
    order, with each seed's subtree walked in a worker process and only
    its graphs of order ``lowest`` or more sent back."""
    # the seeds travel to the workers with their generators or None and
    # their refined unit partitions, so they are not settled as leaves
    top = list(_walk(*root, _PARALLEL_SPLIT_ORDER, flt, False))
    seeds = [(adj, auts, base, lowest, highest, flt)
             for adj, auts, base in top if len(adj) == _PARALLEL_SPLIT_ORDER]
    if not seeds:  # the filter ends the tree below the seed order
        yield from (adj for adj, _, _ in top)
        return
    from multiprocessing import get_context  # only a parallel run needs it
    with get_context("fork").Pool(min(workers, len(seeds))) as pool:
        subtrees = pool.imap(_parallel_task, seeds)
        for adj, _, _ in top:
            if len(adj) < _PARALLEL_SPLIT_ORDER:
                yield adj
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
