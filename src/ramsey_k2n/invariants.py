"""Exact structural invariants: degrees, connectivity and 2-connectivity,
bipartiteness, cycles, independence and K_{2,n}-freeness.

Everything here is exact search, no heuristics.  One exact-length search
for the cycles through a vertex within an allowed vertex set,
``cycles_through``, gives every cycle quantity: fixed-length cycles,
cycles through one vertex, Hamiltonicity, the cycle spectrum,
circumference and girth.  It backtracks over bitmasks from a vertex s,
carrying the mask of s's neighbours that may still close the cycle: once
the path's second vertex is fixed, only those above it, so no cycle is
explored in both directions.  Reachability pruning drops every path whose
end cannot reach enough unused vertices or a closing one, which is fast on
the dense clique-union graphs this package cares about and exhaustive
everywhere.  ``all_cycles_of_length`` answers a length that a bipartite
graph cannot hold (odd, or above twice its smaller side) without a search,
and every whole-graph cycle quantity reads it.  It, ``bipartition`` and
``two_connected`` read adjacency rows, so rows derived from a valid graph,
such as its complement's, are searched without a ``Graph``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import combinations

from .graphs import Graph, GraphError, bits

#: Most cycles of one length listed for one graph.
CYCLE_CAP = 10_000

#: An explicit K_{2,n} embedding: a vertex ``pair`` plus n ``common``
#: neighbors.
K2nWitness = namedtuple("K2nWitness", "pair common")


def _reachable(adj: Sequence[int], v: int, allowed: int) -> int:
    """Mask of allowed vertices reachable from v via allowed vertices."""
    seen = adj[v] & allowed
    frontier = seen
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


def two_connected(adj: Sequence[int]) -> bool:
    """Whether the graph with rows ``adj`` is 2-connected: it has at least
    3 vertices and no cut vertex, so with any one vertex v deleted, every
    other vertex is reachable from the lowest vertex other than v."""
    n = len(adj)
    if n < 3:
        return False
    full = (1 << n) - 1
    for v in range(n):
        rest = full & ~(1 << v)
        if _reachable(adj, 0 if v else 1, rest) != rest:
            return False
    return True


def connectivity(g: Graph) -> int:
    """Exact vertex connectivity: 0 for order 1 and disconnected graphs,
    n - 1 for K_n.

    It is the least number of internally disjoint paths between two
    nonadjacent vertices, n - 1 if there are none.  A minimum separator S
    misses one of the vertices 0..|S|, and the least such vertex i is cut
    off by S from some later vertex j; so sources i = 0, 1, ... are tried
    only while i <= best, each against its later nonadjacent sinks (Even,
    SIAM J. Comput. 4, 1975).  Each pair is a unit-capacity max flow,
    stopped at best, on the split digraph: vertex v becomes the nodes 2v
    (in) and 2v + 1 (out), and ``res[x]`` is the bitmask of nodes x still
    has residual capacity to.
    """
    n = g.order
    base = [0] * (2 * n)
    for v, row in enumerate(g.adj):
        base[2 * v] = 1 << (2 * v + 1)
        for w in bits(row):
            base[2 * v + 1] |= 1 << (2 * w)
    best = n - 1
    i = 0
    while i <= best:
        src = 2 * i + 1
        for j in bits(g.vertices_mask() & ~g.adj[i] & ~((2 << i) - 1)):
            res = base.copy()
            sink = 2 * j
            flow = 0
            while flow < best:
                prev = {}
                seen = 1 << src
                frontier = [src]
                while frontier and not seen >> sink & 1:
                    nxt = []
                    for a in frontier:
                        new = res[a] & ~seen
                        seen |= new
                        while new:
                            low = new & -new
                            new ^= low
                            b = low.bit_length() - 1
                            prev[b] = a
                            nxt.append(b)
                    frontier = nxt
                if not seen >> sink & 1:
                    break
                b = sink
                while b != src:
                    a = prev[b]
                    res[a] &= ~(1 << b)
                    res[b] |= 1 << a
                    b = a
                flow += 1
            best = flow
        i += 1
    return best


def bipartition(adj: Sequence[int]) -> tuple[int, int] | None:
    """The colour classes of a proper 2-colouring of the graph with rows
    ``adj``, as vertex masks, or None if it has an odd cycle: an edge
    inside one breadth-first layer."""
    side = other = 0  # the next layer joins side
    todo = (1 << len(adj)) - 1
    while todo:
        layer = todo & -todo
        while layer:
            todo &= ~layer
            nbrs = 0
            for v in bits(layer):
                nbrs |= adj[v]
            if nbrs & layer:
                return None
            side, other = other, side | layer
            layer = nbrs & todo
    return side, other


def cycles_through(
    adj: Sequence[int], s: int, others: int, m: int, cap: int
) -> list[tuple[int, ...]]:
    """The cycles of length exactly m through s whose other vertices lie in
    the mask ``others``, at most cap of them.

    ``adj`` is a graph's rows of neighbour bitmasks.  A cycle is the
    tuple of its vertices: it starts at s and runs toward the smaller of
    s's two cycle neighbours, and cycles come in lexicographic order.

    A depth-first search grows the path s, p1, p2, ... through unused
    vertices of ``others``, carrying ``close``: the neighbours of s that
    may end the cycle.  Once p1 is fixed, ``close`` holds only those
    above p1, so each cycle is explored in one direction only.  A path
    is dropped unless its end reaches, through unused vertices, enough of
    them for the length and a vertex of ``close``; the breadth-first
    search for them stops as soon as both hold.  At m - 1 vertices the
    cycles are closed at once by the end's unused neighbours in
    ``close``, in ascending order.  There is no cycle of length below 3.
    """
    out: list[tuple[int, ...]] = []
    path = [s]

    def dfs(v: int, depth: int, rem: int, close: int) -> bool:
        """Extend the path of ``depth`` vertices ending at v through the
        vertices of rem; True once the cap is reached."""
        if depth == m - 1:
            ends = adj[v] & rem & close
            while ends:
                low = ends & -ends
                ends ^= low
                out.append((*path, low.bit_length() - 1))
                if len(out) >= cap:
                    return True
            return False
        # the vertices of rem reachable from v, as _reachable, inlined and
        # grown only until they could finish the cycle
        nbrs = reach = frontier = adj[v] & rem
        while reach.bit_count() < m - depth or not close & reach:
            if not frontier:
                return False
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & rem & ~reach
            reach |= frontier
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            w = low.bit_length() - 1
            path.append(w)
            # at depth 1, w is p1: keep only the closers above it
            if dfs(w, depth + 1, rem ^ low,
                   close if depth > 1 else close & -(low << 1)):
                return True
            path.pop()
        return False

    if m >= 3:
        dfs(s, 1, others & ~(1 << s), adj[s])
    return out


def has_cycle_through_last(adj: Sequence[int], lengths: Iterable[int]) -> bool:
    """Whether a cycle of one of the given lengths passes through the last
    vertex of the graph with rows ``adj``."""
    last = len(adj) - 1
    return any(cycles_through(adj, last, (1 << last) - 1, ln, 1)
               for ln in lengths if ln <= len(adj))


def all_cycles_of_length(
    adj: Sequence[int], m: int, cap: int = CYCLE_CAP
) -> tuple[list[tuple[int, ...]], bool]:
    """All cycles of length exactly m in the graph with rows ``adj``, each
    once; returns (cycles, cap_hit).

    A cycle starts at its lowest vertex and runs toward the smaller of that
    vertex's two cycle neighbors, and cycles come in lexicographic order.
    A graph has no C_m when m exceeds its order.  A cycle of a bipartite
    graph alternates sides, so it is even and at most twice the smaller
    side long; other lengths are answered without a search.  A bipartite
    graph has at most ⌊n²/4⌋ edges (Mantel), so a denser one is not
    coloured.
    """
    if m < 3:
        raise GraphError(f"cycle length {m} below 3")
    n = len(adj)
    edges = sum(row.bit_count() for row in adj) // 2
    sides = bipartition(adj) if edges <= n * n // 4 else None
    if sides is not None and (
            m % 2 == 1 or m > 2 * min(side.bit_count() for side in sides)):
        return [], False
    out: list[tuple[int, ...]] = []
    full = (1 << n) - 1
    for s in range(n - m + 1):
        out += cycles_through(adj, s, full & ~((2 << s) - 1), m,
                              cap - len(out))
        if len(out) >= cap:
            return out, True
    return out, False


def has_cycle_of_length(g: Graph, m: int) -> tuple[int, ...] | None:
    """The first cycle of all_cycles_of_length(g.adj, m), or None."""
    cycles, _ = all_cycles_of_length(g.adj, m, cap=1)
    return cycles[0] if cycles else None


def circumference(g: Graph) -> int:
    """Longest cycle length, 0 for forests.

    A vertex of degree below 2 lies on no cycle, so the downward scan
    starts at the number of vertices of degree at least 2.
    """
    top = sum(row.bit_count() >= 2 for row in g.adj)
    return next((ln for ln in range(top, 2, -1) if has_cycle_of_length(g, ln)), 0)


def girth(g: Graph) -> float:
    """Length of a shortest cycle; math.inf for forests."""
    return next((ln for ln in range(3, g.order + 1) if has_cycle_of_length(g, ln)),
                math.inf)


def cycle_spectrum(g: Graph) -> set[int]:
    return {ln for ln in range(3, g.order + 1) if has_cycle_of_length(g, ln)}


def is_hamiltonian(g: Graph) -> tuple[int, ...] | None:
    if g.order < 3:
        raise GraphError("Hamiltonicity needs order >= 3")
    return has_cycle_of_length(g, g.order)


def independence_number(g: Graph) -> int:
    adj = g.adj
    best = 0

    def rec(avail: int, size: int) -> None:
        nonlocal best
        if size + avail.bit_count() <= best:
            return
        if not avail:
            best = max(best, size)
            return
        v = (avail & -avail).bit_length() - 1
        rec(avail & ~adj[v] & ~(1 << v), size + 1)
        rec(avail & ~(1 << v), size)

    rec(g.vertices_mask(), 0)
    return best


def max_common_neighborhood(g: Graph) -> int:
    """max over vertex pairs of |N(u) & N(v)|; 0 for order 1."""
    if g.order < 2:
        return 0
    return max(
        (g.adj[u] & g.adj[v]).bit_count() for u, v in combinations(range(g.order), 2)
    )


def k2n_free(g: Graph, n: int) -> bool:
    """True iff no vertex pair has n or more common neighbors."""
    return find_k2n(g, n) is None


def find_k2n(g: Graph, n: int) -> K2nWitness | None:
    """An explicit K_{2,n} embedding if present (lowest pair first)."""
    if n < 1:
        raise GraphError("n must be >= 1")
    for u, v in combinations(range(g.order), 2):
        cn = g.adj[u] & g.adj[v]
        if cn.bit_count() >= n:
            chosen = []
            for w in bits(cn):
                chosen.append(w)
                if len(chosen) == n:
                    break
            return K2nWitness((u, v), tuple(chosen))
    return None
