import itertools
import math
import time

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from ramsey_k2n import constructions
from ramsey_k2n.enumeration import enumerate_orders
from ramsey_k2n.graphs import (
    Graph,
    GraphError,
    add_edge,
    bits,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    join,
    union_neighborhood_excl,
)
from ramsey_k2n.invariants import (
    all_cycles_of_length,
    bipartition,
    circumference,
    connectivity,
    cycle_spectrum,
    cycles_through,
    find_k2n,
    girth,
    has_cycle_of_length,
    has_cycle_through_last,
    independence_number,
    is_hamiltonian,
    k2n_free,
    max_common_neighborhood,
    min_degree,
    two_connected,
)

from conftest import (
    brute_force_k2n_present,
    complete_multipartite,
    from_edges,
    from_nx,
    path_graph,
    random_graph,
    relabel,
    searched_for_cycle,
    to_nx,
)


# ------------------------------------------------------------ connectivity

def test_connectivity_matches_networkx(rng):
    # every class of order 1..7, random graphs of order 1..14, and stars
    # centred at the first and at the last vertex: only the sources
    # 0..connectivity are tried, so a cut vertex at 0 or at n-1 must both
    # be found
    graphs = [from_nx(h) for h in graph_atlas_g() if h.number_of_nodes()]
    graphs += [random_graph(rng.randint(1, 14), rng.random(), rng)
               for _ in range(300)]
    for n in range(2, 16):
        graphs += [complete_multipartite([1, n - 1]),
                   complete_multipartite([n - 1, 1])]
    for g in graphs:
        assert connectivity(g) == nx.node_connectivity(to_nx(g)), g


def test_connectivity_is_polynomial():
    # K_{32,32} has 2^64 vertex subsets; a subset search never ends
    start = time.monotonic()
    assert connectivity(complete_multipartite([32, 32])) == 32
    assert time.monotonic() - start < 60


def test_connectivity_known_values():
    assert connectivity(complete_graph(5)) == 4
    assert connectivity(cycle_graph(7)) == 2
    assert connectivity(path_graph(4)) == 1
    assert connectivity(disjoint_union(complete_graph(2), complete_graph(2))) == 0
    assert connectivity(disjoint_union(empty_graph(1), empty_graph(1))) == 0
    assert connectivity(empty_graph(1)) == 0


def test_two_connected_matches_connectivity_and_networkx(rng):
    # every class of order 1..7, random graphs of order 1..30, stars
    # centred at the first and at the last vertex (the sweep must find a
    # cut vertex at either end), disjoint unions and K_{32,32}; networkx
    # calls K_2 biconnected, so its answer counts only from order 3
    graphs = [from_nx(h) for h in graph_atlas_g() if h.number_of_nodes()]
    graphs += [random_graph(rng.randint(1, 30), rng.random(), rng)
               for _ in range(300)]
    for n in range(2, 16):
        graphs += [complete_multipartite([1, n - 1]),
                   complete_multipartite([n - 1, 1])]
    graphs += [disjoint_union(cycle_graph(4), cycle_graph(5)),
               disjoint_union(complete_graph(4), empty_graph(1)),
               disjoint_union(empty_graph(1), complete_graph(4)),
               disjoint_union(empty_graph(1), empty_graph(2)),
               complete_multipartite([32, 32])]
    for g in graphs:
        expected = g.order >= 3 and nx.is_biconnected(to_nx(g))
        assert two_connected(g) == expected == (connectivity(g) >= 2), g


# ------------------------------------------------------------------ cycles

def nx_cycle_lengths(g: Graph) -> set[int]:
    return {len(c) for c in nx.simple_cycles(to_nx(g)) if len(c) >= 3}


def test_cycle_spectrum_matches_networkx(rng):
    # random graphs, then random bipartite graphs of order <= 9, whose odd
    # lengths and lengths above twice the smaller side are answered by the
    # bipartite rule without a search, then dense graphs on both sides of
    # the floor(n^2/4) edges above which no graph is coloured: K_{n//2,n-n//2}
    # with at most that many edges, the same plus one edge, and random
    # graphs with one edge fewer, exactly that many and one more
    graphs = [random_graph(rng.randint(3, 8), rng.random(), rng)
              for _ in range(60)]
    for _ in range(60):
        a = rng.randint(1, 8)
        graphs.append(random_bipartite(a, rng.randint(1, 9 - a), rng.random(), rng))
    for n in range(3, 10):
        half = complete_multipartite([n // 2, n - n // 2])
        assert half.edge_count() == n * n // 4
        graphs += [half, add_edge(half, n - 2, n - 1)]
        pairs = list(itertools.combinations(range(n), 2))
        for edges in (n * n // 4 - 1, n * n // 4, n * n // 4 + 1):
            for _ in range(3):
                graphs.append(from_edges(n, rng.sample(pairs, edges)))
    for g in graphs:
        lengths = nx_cycle_lengths(g)
        assert cycle_spectrum(g) == lengths, g
        assert girth(g) == (min(lengths) if lengths else math.inf), g


def test_girth_and_circumference():
    assert girth(cycle_graph(7)) == 7
    assert circumference(cycle_graph(7)) == 7
    assert girth(path_graph(5)) == math.inf
    assert circumference(path_graph(5)) == 0
    assert girth(complete_graph(6)) == 3
    assert circumference(complete_graph(6)) == 6
    # every class of order 3..7, and an unbalanced complete bipartite graph
    graphs = [g for order in range(3, 8) for g in enumerate_orders(order, order)]
    graphs.append(complete_multipartite([3, 5]))
    for g in graphs:
        lengths = nx_cycle_lengths(g)
        assert circumference(g) == (max(lengths) if lengths else 0), g
        assert girth(g) == (min(lengths) if lengths else math.inf), g


def scan_down_circumference(g: Graph) -> int:
    """Reference: every length from the count of degree->=2 vertices down,
    searched without the bipartite rule."""
    top = sum(row.bit_count() >= 2 for row in g.adj)
    return next((ln for ln in range(top, 2, -1) if searched_for_cycle(g, ln)), 0)


def random_bipartite(a: int, b: int, p: float, rng) -> Graph:
    rows = [0] * (a + b)
    for u in range(a):
        for v in range(a, a + b):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(a + b, tuple(rows))


def test_circumference_equals_full_downward_scan(rng):
    graphs = [g for order in range(1, 8) for g in enumerate_orders(order, order)]
    for _ in range(60):
        graphs.append(random_bipartite(rng.randint(1, 7), rng.randint(1, 7),
                                       rng.random(), rng))
    for g in graphs:
        assert circumference(g) == scan_down_circumference(g), g


def test_circumference_of_complete_bipartite_graphs():
    for a in range(2, 9):
        for b in range(2, 9):
            assert circumference(complete_multipartite([a, b])) == 2 * min(a, b)


def test_bipartition_matches_networkx(rng):
    graphs = [g for order in range(1, 8) for g in enumerate_orders(order, order)]
    graphs += [random_graph(rng.randint(1, 16), rng.random() / 2, rng)
               for _ in range(300)]
    for g in graphs:
        sides = bipartition(g)
        assert (sides is not None) == nx.is_bipartite(to_nx(g)), g
        if sides is not None:
            a, b = sides
            assert a | b == g.vertices_mask() and not a & b, g
            assert all(not g.adj[v] & side for side in sides for v in bits(side)), g


def test_cycle_witness_validates(rng):
    for _ in range(40):
        g = random_graph(rng.randint(3, 9), rng.random(), rng)
        for m in range(3, g.order + 3):
            w = has_cycle_of_length(g, m)
            assert (w is not None) == (m in cycle_spectrum(g))
            if w is not None:
                assert len(w.vertices) == m
                assert w.validate(g)
        with pytest.raises(GraphError):
            has_cycle_of_length(g, 2)


def test_cycle_through_last_matches_cycle_membership():
    # every class of order <= 7, with each vertex in turn made the last one;
    # through[ln]: the vertices on some C_ln, by networkx
    for g in enumerate_orders(3, 7):
        through = {ln: set() for ln in range(3, g.order + 1)}
        for c in nx.simple_cycles(to_nx(g), length_bound=g.order):
            if len(c) >= 3:
                through[len(c)].update(c)
        for x in range(g.order):
            perm = list(range(g.order))
            perm[x], perm[-1] = perm[-1], perm[x]
            rows = relabel(g, perm).adj
            for ln, on in through.items():
                assert has_cycle_through_last(rows, (ln,)) == (x in on)
            assert has_cycle_through_last(rows, tuple(through)) \
                == any(x in on for on in through.values())


def _brute_cycles_through(g, s: int, others: int, m: int) -> list[tuple]:
    """In lexicographic order, each sequence s, v1, ..., v_{m-1} of other
    vertices in others that closes a cycle with v1 < v_{m-1}."""
    inside = [v for v in bits(others) if v != s]
    return [(s, *p) for p in itertools.permutations(inside, m - 1)
            if p[0] < p[-1] and g.has_edge(s, p[0]) and g.has_edge(p[-1], s)
            and all(g.has_edge(a, b) for a, b in zip(p, p[1:]))]


def test_cycles_through_lists_the_cycles_inside_others(rng):
    # every class of order <= 6 and every s, against every others mask at
    # orders <= 5 and a sample of masks at order 6
    for g in enumerate_orders(3, 6):
        k = g.order
        masks = range(1 << k) if k <= 5 else rng.sample(range(1 << k), 16)
        for s in range(k):
            for others in masks:
                for m in range(3, k + 1):
                    got = cycles_through(g.adj, s, others, m, math.inf)
                    assert [c.vertices for c in got] \
                        == _brute_cycles_through(g, s, others, m), \
                        (g.adj, s, others, m)


def test_cycles_through_stops_at_the_cap(rng):
    # the first cap cycles of the full list, on sampled classes of order 7,
    # random graphs of order 8 and clique unions with and without an apex,
    # which hold many cycles of each length; every s, against the whole
    # vertex set and one sampled others mask
    graphs = [*rng.sample(list(enumerate_orders(7, 7)), 4),
              *(random_graph(8, p, rng) for p in (0.4, 0.6, 0.8)),
              constructions._clique_union([3, 4]),
              constructions._apex_over_cliques([3, 4]),
              constructions._apex_over_cliques([2, 2, 3])]
    for g in graphs:
        k = g.order
        for s in range(k):
            for others in ((1 << k) - 1, rng.randrange(1 << k)):
                for m in range(3, k + 1):
                    brute = _brute_cycles_through(g, s, others, m)
                    for cap in (1, 2, 5):
                        got = cycles_through(g.adj, s, others, m, cap)
                        assert [c.vertices for c in got] == brute[:cap], \
                            (g.adj, s, others, m, cap)


def test_fixed_length_search_is_deterministic():
    g = complete_graph(7)
    w1 = has_cycle_of_length(g, 6)
    w2 = has_cycle_of_length(g, 6)
    assert w1.vertices == w2.vertices == (0, 1, 2, 3, 4, 5)


def test_clique_union_apex_circumference_is_fast():
    # K_1 joined to K_10 + K_10: exactly one apex, so the longest cycle is
    # a Hamiltonian path of one clique closed through the apex.
    big = join(empty_graph(1),
               disjoint_union(complete_graph(10), complete_graph(10)))
    assert circumference(big) == 11


def test_all_longest_cycles_dedup_and_cap(rng):
    cycles, capped = all_cycles_of_length(cycle_graph(6), 6)
    assert len(cycles) == 1 and not capped
    cycles, capped = all_cycles_of_length(complete_graph(5), 5)
    assert len(cycles) == 12 and not capped  # (5-1)!/2
    cycles, capped = all_cycles_of_length(complete_graph(5), 5, cap=5)
    assert len(cycles) == 5 and capped
    for _ in range(30):
        g = random_graph(rng.randint(3, 8), rng.random(), rng)
        h = to_nx(g)
        for m in range(3, g.order + 1):
            want = sum(1 for c in nx.simple_cycles(h, length_bound=m)
                       if len(c) == m)
            assert len(all_cycles_of_length(g, m)[0]) == want


def test_hamiltonicity_and_pancyclicity():
    assert is_hamiltonian(complete_graph(5)) is not None
    assert is_hamiltonian(path_graph(5)) is None
    g = disjoint_union(cycle_graph(3), cycle_graph(5))
    assert girth(g) == 3 and circumference(g) == 5


# ------------------------------------------------- K_{2,n} and neighborhoods

@pytest.mark.parametrize("n", [1, 2, 3])
def test_k2n_free_matches_embedding_oracle_exhaustive(n):
    for order in range(1, 7):
        for g in enumerate_orders(order, order):
            assert k2n_free(g, n) == (not brute_force_k2n_present(g, n))


def test_k2n_witness_validates(rng):
    for _ in range(60):
        g = random_graph(rng.randint(2, 9), rng.random(), rng)
        for n in (1, 2, 3):
            wit = find_k2n(g, n)
            assert (wit is None) == k2n_free(g, n)
            if wit is not None:
                assert len(wit.common) >= n
                assert wit.validate(g)


def test_max_common_neighborhood():
    assert max_common_neighborhood(complete_multipartite([2, 3])) == 3
    assert max_common_neighborhood(complete_graph(6)) == 4
    assert max_common_neighborhood(empty_graph(4)) == 0
    star = complete_multipartite([1, 5])
    assert max_common_neighborhood(star) == 1


def test_union_neighborhood_excl_small():
    g = cycle_graph(5)
    # N(0) = {1,4}, N(1) = {0,2}; union minus {0,1} = {2,4}
    assert union_neighborhood_excl(g, 0, 1) == 2


# ---------------------------------------------------------------- various

def test_degrees_bipartite_independence(rng):
    assert min_degree(path_graph(4)) == 1
    for _ in range(50):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        cliques = list(nx.find_cliques(to_nx(complement(g))))
        assert independence_number(g) == max(len(c) for c in cliques)
