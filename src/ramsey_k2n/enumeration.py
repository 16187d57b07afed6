"""Isomorph-free exhaustive generation of small graphs.

Generation is by canonical augmentation: each graph on k+1 vertices is
produced from the unique parent obtained by deleting its canonically-last
vertex.  A child is accepted iff that canonical deletion is isomorphic to the
parent it was extended from, so each isomorphism class appears exactly once
globally.  Hereditary filters prune the search tree safely because a filtered
class's canonical parent also passes the filter.

Three exact shortcuts (McKay, "Isomorph-free exhaustive generation", 1998)
keep most masks away from the expensive steps.  The canonically-last vertex
always has maximum degree, so a mask whose new vertex would not have the
child's maximum degree is rejected before orbit pruning, the filter and
labeling.  Masks in one Aut(g)-orbit give isomorphic children, so each orbit
is expanded once, when its first mask is met, and its other masks are
skipped.  A labeled child whose new vertex lies in the orbit of its
canonically-last vertex, under the automorphisms the labeling found, is
accepted without labeling the deleted-vertex parent.  None of them changes
which representative is emitted or the order of the stream.  A filter whose
candidate masks are exact is not asked again about the children they give.
"""

from __future__ import annotations

import math
from multiprocessing import get_context
from typing import Iterable, Iterator

from .canon import canonical_form, canonical_labeling
from .graphs import Graph, add_vertex, bits, empty_graph, induced_subgraph

_PARALLEL_SPLIT_ORDER = 5


class GenerationFilter:
    """Pruning predicate for generation.

    Filters must be hereditary, i.e. closed under vertex deletion: they are
    applied at every order, so a graph is reached only through ancestors
    that pass.  ``candidate_masks``, when given, lists the neighborhoods
    tried for the new vertex, and they must be exactly the masks whose child
    passes, given a parent that passes: generation does not call
    ``accepts`` on those children.
    """

    def accepts(self, g: Graph) -> bool:
        raise NotImplementedError

    def candidate_masks(self, g: Graph) -> Iterable[int] | None:
        return None


class AllGraphs(GenerationFilter):
    def accepts(self, g: Graph) -> bool:
        return True


class K2nFreeFilter(GenerationFilter):
    """K_{2,n}-free graphs, with candidate-mask pruning."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n

    def accepts(self, g: Graph) -> bool:
        from .invariants import k2n_free

        return k2n_free(g, self.n)

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
    cand = flt.candidate_masks(g)
    masks: Iterable[int] = range(1 << k) if cand is None else cand
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
    for s in masks:
        size = s.bit_count()
        if size < top or (size == top and s & top_mask):
            continue
        # Masks in one Aut(g)-orbit give isomorphic children: expand the
        # orbit at its first mask and skip the rest.  The pretest and the
        # candidate masks are Aut(g)-invariant, so the orbit stays inside
        # the masks this loop visits.
        if tables:
            if s in seen_orbit:
                continue
            seen_orbit |= _orbit_min(s, tables)
        child = add_vertex(g, s)
        if cand is None and not flt.accepts(child):
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


def _extend_to(
    g: Graph,
    form: bytes,
    auts: list[tuple[int, ...]],
    order: int,
    flt: GenerationFilter,
) -> Iterator[Graph]:
    if g.order == order:
        yield g
        return
    for child, cform, cauts in _children(g, form, auts, flt):
        yield from _extend_to(child, cform, cauts, order, flt)


def enumerate_graphs(order: int, flt: GenerationFilter = ALL_GRAPHS) -> Iterator[Graph]:
    """One representative per isomorphism class passing the filter.

    Deterministic output order; graphs are streamed, never materialized.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    g1 = empty_graph(1)
    if not flt.accepts(g1):
        return
    perm, form, auts = canonical_labeling(g1)
    yield from _extend_to(g1, form, auts, order, flt)


def _parallel_task(args: tuple[str, int, GenerationFilter]) -> list[str]:
    from .graphs import decode_graph6, encode_graph6

    g6, order, flt = args
    seed = decode_graph6(g6)
    _, form, auts = canonical_labeling(seed)
    return [encode_graph6(g) for g in _extend_to(seed, form, auts, order, flt)]


def enumerate_parallel(
    order: int, flt: GenerationFilter = ALL_GRAPHS, workers: int = 1
) -> Iterator[Graph]:
    """The same sequence of graphs as enumerate_graphs.

    The search tree is split at the seed order and subtrees are distributed
    across worker processes; ``imap`` keeps the seeds' order, and each
    subtree comes back in depth-first order.  Filters must be picklable.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1 or order <= _PARALLEL_SPLIT_ORDER + 1:
        yield from enumerate_graphs(order, flt)
        return
    from .graphs import decode_graph6, encode_graph6

    seeds = [encode_graph6(g) for g in enumerate_graphs(_PARALLEL_SPLIT_ORDER, flt)]
    ctx = get_context("fork")
    with ctx.Pool(workers) as pool:
        for chunk in pool.imap(_parallel_task, [(s, order, flt) for s in seeds]):
            for g6 in chunk:
                yield decode_graph6(g6)


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
