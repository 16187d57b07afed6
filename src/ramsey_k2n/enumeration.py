"""Isomorph-free exhaustive generation of small graphs.

Generation is by canonical augmentation: each graph on k+1 vertices is
produced from the unique parent obtained by deleting its canonically-last
vertex.  A child is accepted iff that canonical deletion is isomorphic to the
parent it was extended from, so each isomorphism class appears exactly once
globally.  Hereditary filters prune the search tree safely because a filtered
class's canonical parent also passes the filter.  One depth-first walk of
the tree yields every order up to the highest asked for; the single-order
streams are read off it.

Every filter meets one contract (``GenerationFilter``): its candidate
masks are the only neighbourhoods tried for the new vertex, and ``accepts``
then checks only what that vertex adds to a passing parent.

Three exact shortcuts (McKay, "Isomorph-free exhaustive generation", 1998)
keep most masks away from the expensive steps.  The canonically-last vertex
always has maximum degree, so a mask whose new vertex would not have the
child's maximum degree is rejected before orbit pruning, the filter and
labeling.  Masks in one Aut(g)-orbit give isomorphic children, so each orbit
is expanded once, when its first mask is met, and its other masks are
skipped.  A labeled child whose new vertex lies in the orbit of its
canonically-last vertex, under the automorphisms the labeling found, is
accepted without labeling the deleted-vertex parent.  None of them changes
which representative is emitted or the order of the stream.
"""

from __future__ import annotations

import math
from multiprocessing import get_context
from typing import Iterable, Iterator

from .canon import canonical_form, canonical_labeling
from .graphs import Graph, add_vertex, bits, empty_graph, induced_subgraph

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


class AllGraphs(GenerationFilter):
    """Every graph."""


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


ALL_GRAPHS = AllGraphs()


def _orbit_min(mask: int, tables: list[list[int]]) -> set[int]:
    """The orbit of ``mask`` under the group the generator tables generate.

    The benchmark tracer counts the orbits expanded under this name.
    """
    orbit = {mask}
    frontier = [mask]
    while frontier:
        m = frontier.pop()
        for tab in tables:
            im = 0
            mm = m
            while mm:
                low = mm & -mm
                im |= 1 << tab[low.bit_length() - 1]
                mm ^= low
            if im not in orbit:
                orbit.add(im)
                frontier.append(im)
    return orbit


def _in_orbit(v: int, u: int, gens: list[tuple[int, ...]]) -> bool:
    """Whether some product of the permutations ``gens`` maps u to v."""
    if u == v:
        return True
    orbit = {u}
    frontier = [u]
    while frontier:
        w = frontier.pop()
        for a in gens:
            x = a[w]
            if x == v:
                return True
            if x not in orbit:
                orbit.add(x)
                frontier.append(x)
    return False


def _children(
    g: Graph, form: bytes, auts: list[tuple[int, ...]], flt: GenerationFilter
) -> Iterator[tuple[Graph, bytes, list[tuple[int, ...]]]]:
    """Accepted one-vertex extensions of g (exactly one per class)."""
    k = g.order
    g_degseq = sorted(row.bit_count() for row in g.adj)
    # The canonically-last vertex has the child's maximum degree, so only a
    # new vertex of maximum degree can be it: |s| above every degree of g,
    # or equal to the top degree D with no degree-D vertex of g in s.  The
    # test is invariant under Aut(g) and only drops masks whose class fails
    # the parent test whichever mask produced it, so the accepted children
    # and their order are unchanged.
    top = g_degseq[-1]
    top_mask = 0
    for v, row in enumerate(g.adj):
        if row.bit_count() == top:
            top_mask |= 1 << v
    tables = [list(a) for a in auts]
    seen_orbit: set[int] = set()
    seen_children: set[bytes] = set()
    for s in flt.candidate_masks(g):
        size = s.bit_count()
        if size < top or (size == top and s & top_mask):
            continue
        # Masks in one Aut(g)-orbit give isomorphic children: expand the
        # orbit at its first mask and skip the rest.  The pretest and the
        # candidate masks are Aut(g)-invariant, so the orbit stays inside
        # the masks this loop visits, and the filter rejects an orbit whole.
        if tables:
            if s in seen_orbit:
                continue
            seen_orbit |= _orbit_min(s, tables)
        child = add_vertex(g, s)
        if not flt.accepts(child):
            continue
        perm, cform, cauts = canonical_labeling(child)
        if cform in seen_children:
            continue
        seen_children.add(cform)
        # Canonical-deletion parent test.  If an automorphism of the child
        # maps the canonically-last vertex to the new vertex k, deleting
        # either leaves g.  Otherwise compare degree sequences, read off
        # the child's rows, before building the parent to compare forms;
        # the pretest already gives the deleted vertex degree |s|, so the
        # edge counts agree.
        last = perm[-1]
        if not _in_orbit(k, last, cauts):
            keep = ~(1 << last)
            degseq = sorted((row & keep).bit_count()
                            for v, row in enumerate(child.adj) if v != last)
            if degseq != g_degseq:
                continue
            parent = induced_subgraph(child, list(perm[:-1]))
            if canonical_form(parent) != form:
                continue
        yield child, cform, cauts


def _walk(
    g: Graph,
    form: bytes,
    auts: list[tuple[int, ...]],
    order: int,
    flt: GenerationFilter,
) -> Iterator[Graph]:
    """g, then its accepted descendants up to ``order``, depth first."""
    yield g
    if g.order < order:
        for child, cform, cauts in _children(g, form, auts, flt):
            yield from _walk(child, cform, cauts, order, flt)


def _parallel_task(args: tuple[str, int, int, GenerationFilter]) -> list[str]:
    from .graphs import decode_graph6, encode_graph6

    g6, lowest, highest, flt = args
    seed = decode_graph6(g6)
    _, form, auts = canonical_labeling(seed)
    return [encode_graph6(g) for g in _walk(seed, form, auts, highest, flt)
            if g.order >= lowest]


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
    g1 = empty_graph(1)
    _, form, auts = canonical_labeling(g1)
    if workers == 1 or highest <= _PARALLEL_SPLIT_ORDER + 1:
        for g in _walk(g1, form, auts, highest, flt):
            if g.order >= lowest:
                yield g
        return
    from .graphs import decode_graph6, encode_graph6

    top = list(_walk(g1, form, auts, _PARALLEL_SPLIT_ORDER, flt))
    seeds = [encode_graph6(g) for g in top if g.order == _PARALLEL_SPLIT_ORDER]
    ctx = get_context("fork")
    with ctx.Pool(workers) as pool:
        subtrees = pool.imap(_parallel_task,
                             [(s, lowest, highest, flt) for s in seeds])
        for g in top:
            if g.order < _PARALLEL_SPLIT_ORDER:
                if g.order >= lowest:
                    yield g
            else:  # a seed: its subtree, itself first
                for g6 in next(subtrees):
                    yield decode_graph6(g6)


def enumerate_graphs(order: int, flt: GenerationFilter = ALL_GRAPHS) -> Iterator[Graph]:
    """One representative per isomorphism class of the given order passing
    the filter, in a deterministic order."""
    return enumerate_orders(order, order, flt)


def enumerate_parallel(
    order: int, flt: GenerationFilter = ALL_GRAPHS, workers: int = 1
) -> Iterator[Graph]:
    """The same sequence of graphs as enumerate_graphs, from ``workers``
    processes."""
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
