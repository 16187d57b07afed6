import random
from itertools import combinations
from typing import Iterable

import networkx as nx
import pytest

from ramsey_k2n.canon import _refine, canonical_labeling
from ramsey_k2n.graphs import Graph, GraphError, bits, empty_graph
from ramsey_k2n.invariants import cycles_through


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def from_edges(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * order
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(order, tuple(rows))


def canonical_form(g: Graph) -> bytes:
    return canonical_labeling(g.adj)[1]


def add_vertex(g: Graph, neighbors_mask: int) -> Graph:
    """New graph with one extra vertex adjacent to ``neighbors_mask``."""
    v = g.order
    rows = [row | (1 << v if neighbors_mask >> u & 1 else 0) for u, row in enumerate(g.adj)]
    rows.append(neighbors_mask)
    return Graph(g.order + 1, tuple(rows))


def induced_subgraph(g: Graph, vertices: list[int]) -> Graph:
    """Induced subgraph, relabeled so vertices[i] becomes i."""
    pos = {v: i for i, v in enumerate(vertices)}
    if len(pos) != len(vertices):
        raise GraphError("duplicate vertices")
    rows = [0] * len(vertices)
    for i, v in enumerate(vertices):
        for u in bits(g.adj[v]):
            j = pos.get(u)
            if j is not None:
                rows[i] |= 1 << j
    return Graph(len(vertices), tuple(rows))


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.order:
        raise GraphError(f"vertex {v} outside 0..{g.order - 1}")


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """New graph with the edge uv added."""
    _check_vertex(g, u)
    _check_vertex(g, v)
    if u == v:
        raise GraphError("loops are not allowed")
    rows = list(g.adj)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return Graph(g.order, tuple(rows))


def path_graph(order: int) -> Graph:
    g = empty_graph(order)
    for v in range(order - 1):
        g = add_edge(g, v, v + 1)
    return g


def complete_multipartite(part_sizes: list[int]) -> Graph:
    n = sum(part_sizes)
    full = (1 << n) - 1
    rows = []
    start = 0
    for size in part_sizes:
        part = ((1 << size) - 1) << start
        rows.extend(full ^ part for _ in range(size))
        start += size
    return Graph(n, tuple(rows))


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from((u, v) for u in range(g.order) for v in bits(g.adj[u]) if v > u)
    return h


def from_nx(h: nx.Graph) -> Graph:
    adj = [0] * h.number_of_nodes()
    for u, v in h.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(len(adj), tuple(adj))


PETERSEN = from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def brute_force_k2n_present(g: Graph, n: int) -> bool:
    """Literal K_{2,n} embedding search: two centers plus n common leaves."""
    for u, v in combinations(range(g.order), 2):
        leaves = [w for w in range(g.order)
                  if w not in (u, v)
                  and g.adj[u] >> w & 1 and g.adj[v] >> w & 1]
        if len(leaves) >= n:
            return True
    return False


def is_cycle(g: Graph, vs: tuple[int, ...]) -> bool:
    """Whether ``vs``, in order, are the distinct vertices of a cycle of g
    of length at least 3."""
    if len(set(vs)) != len(vs) or not 3 <= len(vs) <= g.order:
        return False
    return all(g.adj[vs[i]] >> vs[(i + 1) % len(vs)] & 1 for i in range(len(vs)))


def is_k2n_embedding(g: Graph, pair: tuple[int, int],
                     common: tuple[int, ...]) -> bool:
    """Whether the vertex ``pair`` and the nonempty ``common`` vertices,
    distinct from it and from each other, span a K_{2,|common|} of g: every
    common vertex is adjacent to both vertices of the pair."""
    u, v = pair
    if u == v or not common:
        return False
    cset = set(common)
    if len(cset) != len(common) or cset & {u, v}:
        return False
    return all(g.adj[u] >> w & 1 and g.adj[v] >> w & 1 for w in common)


def plain_cycle_search(adj: tuple[int, ...], lengths: Iterable[int]) -> bool:
    """Reference: whether the graph with rows ``adj`` has a cycle of one of
    the given lengths, by ``cycles_through`` from each vertex over the
    vertices above it, with no bipartite rule."""
    full = (1 << len(adj)) - 1
    return any(cycles_through(adj, s, full & ~((2 << s) - 1), ln, 1)
               for ln in lengths for s in range(len(adj) - ln + 1))


def unit_refinement(g: Graph) -> list[list[int]]:
    """g's refined unit partition, the ``base`` a node of the walk carries."""
    return _refine(g.adj, [list(range(g.order))], [g.vertices_mask()])


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Relabeled copy: vertex v becomes perm[v]."""
    rows = [0] * g.order
    for v in range(g.order):
        rows[perm[v]] = mask_of(perm[u] for u in bits(g.adj[v]))
    return Graph(g.order, tuple(rows))


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
