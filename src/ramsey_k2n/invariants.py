"""Exact structural invariants: degrees, connectivity, cycles, independence
and K_{2,n}-freeness.

Everything here is exact search, no heuristics.  One exact-length cycle
search, ``lowest_vertex_cycles`` run from every start vertex by
``all_cycles_of_length``, gives every cycle quantity: fixed-length cycles,
cycles through one vertex, Hamiltonicity, the cycle spectrum,
circumference and girth.  It backtracks over bitmasks with reachability
pruning, which is fast on the dense clique-union graphs this package cares
about and exhaustive everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .graphs import Graph, GraphError, bits


@dataclass(frozen=True, slots=True)
class CycleWitness:
    """An explicit cycle, as the ordered vertex sequence."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)

    def validate(self, g: Graph) -> bool:
        vs = self.vertices
        if len(set(vs)) != len(vs) or not 3 <= len(vs) <= g.order:
            return False
        return all(g.has_edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))


@dataclass(frozen=True, slots=True)
class K2nWitness:
    """An explicit K_{2,n} embedding: a vertex pair plus n common neighbors."""

    pair: tuple[int, int]
    common: tuple[int, ...]

    def validate(self, g: Graph) -> bool:
        u, v = self.pair
        if u == v or not self.common:
            return False
        cset = set(self.common)
        if len(cset) != len(self.common) or cset & {u, v}:
            return False
        return all(g.has_edge(u, w) and g.has_edge(v, w) for w in self.common)


@dataclass(frozen=True)
class PatternParams:
    """Chromatic data of the target pattern, for Burr's lower bound."""

    kind: str  # "cycle" | "k2n"
    size: int  # m for cycles, n for K_{2,n}

    def __post_init__(self):
        if self.kind not in ("cycle", "k2n"):
            raise GraphError(f"unknown pattern kind {self.kind!r}")
        if self.kind == "cycle" and self.size < 3:
            raise GraphError("cycle length must be >= 3")
        if self.kind == "k2n" and self.size < 2:
            raise GraphError("K_{2,n} goodness arithmetic requires n >= 2")

    @classmethod
    def cycle(cls, m: int) -> "PatternParams":
        return cls("cycle", m)

    @classmethod
    def k2n(cls, n: int) -> "PatternParams":
        return cls("k2n", n)

    @property
    def chi(self) -> int:
        if self.kind == "k2n":
            return 2
        return 2 if self.size % 2 == 0 else 3

    @property
    def sigma(self) -> int:
        if self.kind == "k2n":
            return 2
        return self.size // 2 if self.size % 2 == 0 else 1


def min_degree(g: Graph) -> int:
    return min(row.bit_count() for row in g.adj)


def _reachable(adj: Sequence[int], v: int, allowed: int) -> int:
    """Mask of allowed vertices reachable from v via allowed vertices."""
    seen = adj[v] & allowed
    frontier = seen
    while frontier:
        nxt = 0
        for w in bits(frontier):
            nxt |= adj[w]
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


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
                        for b in bits(new):
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


def lowest_vertex_cycles(
    adj: Sequence[int], s: int, m: int, cap: int
) -> list[CycleWitness]:
    """The cycles of length exactly m whose lowest vertex is s, at most cap
    of them, in the order of ``all_cycles_of_length``.

    ``adj`` is a graph's rows of neighbour bitmasks.  With s = 0 these are
    all the cycles of length m through vertex 0.
    """
    out: list[CycleWitness] = []
    gt = ((1 << len(adj)) - 1) & ~((2 << s) - 1)
    stack_path = [s]

    def dfs(v: int, used: int) -> bool:
        """Extend the path; True once the cap is reached."""
        depth = len(stack_path)
        if depth == m:
            if adj[v] >> s & 1 and stack_path[1] < stack_path[-1]:
                out.append(CycleWitness(tuple(stack_path)))
                return len(out) >= cap
            return False
        rem = gt & ~used
        reach = _reachable(adj, v, rem)
        if reach.bit_count() < m - depth or not adj[s] & reach:
            return False
        for w in bits(adj[v] & rem):
            stack_path.append(w)
            if dfs(w, used | (1 << w)):
                return True
            stack_path.pop()
        return False

    dfs(s, 1 << s)
    return out


def has_cycle_through_last(adj: Sequence[int], lengths: Iterable[int]) -> bool:
    """Whether a cycle of one of the given lengths passes through the last
    vertex of the graph with rows ``adj``.

    The rows are rotated so that the last vertex becomes 0; the cycles
    through it are then those whose lowest vertex is 0.
    """
    k = len(adj)
    last = k - 1
    full = (1 << k) - 1
    rows = [(adj[v] << 1 | adj[v] >> last) & full for v in (last, *range(last))]
    return any(lowest_vertex_cycles(rows, 0, ln, 1) for ln in lengths if ln <= k)


def all_cycles_of_length(
    g: Graph, m: int, cap: int = 10_000
) -> tuple[list[CycleWitness], bool]:
    """All cycles of length exactly m, each once; returns (cycles, cap_hit).

    A cycle starts at its lowest vertex and runs toward the smaller of that
    vertex's two cycle neighbors, and cycles come in lexicographic order.
    A graph has no C_m when m exceeds its order.
    """
    if m < 3:
        raise GraphError(f"cycle length {m} below 3")
    out: list[CycleWitness] = []
    for s in range(g.order - m + 1):
        out += lowest_vertex_cycles(g.adj, s, m, cap - len(out))
        if len(out) >= cap:
            return out, True
    return out, False


def has_cycle_of_length(g: Graph, m: int) -> CycleWitness | None:
    """The first cycle of all_cycles_of_length(g, m), or None."""
    cycles, _ = all_cycles_of_length(g, m, cap=1)
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


def is_hamiltonian(g: Graph) -> CycleWitness | None:
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
