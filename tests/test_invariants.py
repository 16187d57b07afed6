import itertools
import math
import time

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from ramsey_k2n import constructions
from ramsey_k2n.graphs import (
    Graph,
    GraphError,
    bits,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    join,
)
from ramsey_k2n.invariants import (
    K2nWitness,
    all_cycles_of_length,
    bipartition,
    certified,
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
    two_connected,
)

from conftest import (
    add_edge,
    add_vertex,
    brute_force_k2n_present,
    complete_multipartite,
    from_edges,
    from_nx,
    generated,
    is_cycle,
    is_k2n_embedding,
    path_graph,
    plain_cycle_search,
    random_graph,
    relabel,
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
        assert connectivity(g.adj) == nx.node_connectivity(to_nx(g)), g


def test_connectivity_is_polynomial():
    # K_{32,32} has 2^64 vertex subsets; a subset search never ends
    start = time.monotonic()
    assert connectivity(complete_multipartite([32, 32]).adj) == 32
    assert time.monotonic() - start < 60


def test_connectivity_known_values():
    assert connectivity(complete_graph(5).adj) == 4
    assert connectivity(cycle_graph(7).adj) == 2
    assert connectivity(path_graph(4).adj) == 1
    assert connectivity(disjoint_union(complete_graph(2), complete_graph(2)).adj) == 0
    assert connectivity(disjoint_union(empty_graph(1), empty_graph(1)).adj) == 0
    assert connectivity(empty_graph(1).adj) == 0


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
        assert two_connected(g.adj) == expected == (connectivity(g.adj) >= 2), g


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
        assert cycle_spectrum(g.adj) == lengths, g
        assert girth(g.adj) == (min(lengths) if lengths else math.inf), g


def test_girth_and_circumference():
    assert girth(cycle_graph(7).adj) == 7
    assert circumference(cycle_graph(7).adj) == 7
    assert girth(path_graph(5).adj) == math.inf
    assert circumference(path_graph(5).adj) == 0
    assert girth(complete_graph(6).adj) == 3
    assert circumference(complete_graph(6).adj) == 6
    # every class of order 3..7, and an unbalanced complete bipartite graph
    graphs = [g for order in range(3, 8) for g in generated(order, order)]
    graphs.append(complete_multipartite([3, 5]))
    for g in graphs:
        lengths = nx_cycle_lengths(g)
        assert circumference(g.adj) == (max(lengths) if lengths else 0), g
        assert girth(g.adj) == (min(lengths) if lengths else math.inf), g


def scan_down_circumference(g: Graph) -> int:
    """Reference: every length from the count of degree->=2 vertices down,
    searched without the bipartite rule."""
    top = sum(row.bit_count() >= 2 for row in g.adj)
    return next((ln for ln in range(top, 2, -1)
                 if plain_cycle_search(g.adj, (ln,))), 0)


def random_bipartite(a: int, b: int, p: float, rng) -> Graph:
    rows = [0] * (a + b)
    for u in range(a):
        for v in range(a, a + b):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(a + b, tuple(rows))


def test_circumference_equals_full_downward_scan(rng):
    graphs = [g for order in range(1, 8) for g in generated(order, order)]
    for _ in range(60):
        graphs.append(random_bipartite(rng.randint(1, 7), rng.randint(1, 7),
                                       rng.random(), rng))
    for g in graphs:
        assert circumference(g.adj) == scan_down_circumference(g), g


def test_circumference_of_complete_bipartite_graphs():
    for a in range(2, 9):
        for b in range(2, 9):
            assert circumference(complete_multipartite([a, b]).adj) == 2 * min(a, b)


def test_bipartition_matches_networkx(rng):
    graphs = [g for order in range(1, 8) for g in generated(order, order)]
    graphs += [random_graph(rng.randint(1, 16), rng.random() / 2, rng)
               for _ in range(300)]
    for g in graphs:
        sides = bipartition(g.adj)
        assert (sides is not None) == nx.is_bipartite(to_nx(g)), g
        if sides is not None:
            a, b = sides
            assert a | b == (1 << g.order) - 1 and not a & b, g
            assert all(not g.adj[v] & side for side in sides for v in bits(side)), g


def test_cycle_witness_validates(rng):
    for _ in range(40):
        g = random_graph(rng.randint(3, 9), rng.random(), rng)
        for m in range(3, g.order + 3):
            w = has_cycle_of_length(g.adj, m)
            assert (w is not None) == (m in cycle_spectrum(g.adj))
            if w is not None:
                assert len(w) == m
                assert is_cycle(g, w)
        with pytest.raises(GraphError):
            has_cycle_of_length(g.adj, 2)


def test_witnesses_read_back_their_fields():
    # a cycle is the plain tuple of its vertices
    g = cycle_graph(5)
    w = has_cycle_of_length(g.adj, 5)
    assert w == (0, 1, 2, 3, 4) and type(w) is tuple
    assert is_cycle(g, w) and not is_cycle(g, (0, 2, 4))
    assert not is_cycle(g, (0, 1, 2, 3, 3)) and not is_cycle(g, (0, 1))
    k = K2nWitness((0, 1), (2, 3, 4))
    assert k.pair == (0, 1) and k.common == (2, 3, 4)
    k23 = complete_multipartite([2, 3])
    assert is_k2n_embedding(k23, *k)
    assert not is_k2n_embedding(g, *k)
    assert not is_k2n_embedding(k23, (0, 0), (2,))
    assert not is_k2n_embedding(k23, (0, 1), ())
    assert not is_k2n_embedding(k23, (0, 1), (2, 2))
    assert not is_k2n_embedding(k23, (2, 3), (0, 2))
    found = find_k2n(k23.adj, 3)
    assert is_k2n_embedding(k23, found.pair, found.common)
    assert len(found.common) == 3


def test_cycle_through_last_matches_cycle_membership():
    # every class of order <= 7, with each vertex in turn made the last one;
    # through[ln]: the vertices on some C_ln, by networkx
    for g in generated(3, 7):
        through = {ln: set() for ln in range(3, g.order + 1)}
        for c in nx.simple_cycles(to_nx(g), length_bound=g.order):
            if len(c) >= 3:
                through[len(c)].update(c)
        for x in range(g.order):
            perm = list(range(g.order))
            perm[x], perm[-1] = perm[-1], perm[x]
            rows = relabel(g, perm).adj
            ends = {}  # the last call reads what the others recorded
            for ln, on in through.items():
                assert has_cycle_through_last(rows, (ln,), ends) == (x in on)
            assert has_cycle_through_last(rows, tuple(through), ends) \
                == any(x in on for on in through.values())
            _check_recorded_ends(rows, ends)


def _joined_by_path(rows, a: int, b: int, count: int) -> bool:
    """Whether a path on ``count`` vertices, none of them the last one,
    joins a to b, by trying every sequence of inner vertices."""
    inner = [v for v in range(len(rows) - 1) if v not in (a, b)]
    return any(all(rows[u] >> v & 1
                   for u, v in itertools.pairwise((a, *mid, b)))
               for mid in itertools.permutations(inner, count - 2))


def _check_recorded_ends(rows, ends) -> None:
    """Every end pair recorded for a length L is joined by a path on L-1
    vertices that avoids the last vertex."""
    for ln, partners in ends.items():
        assert len(partners) == len(rows) - 1
        for a, mask in enumerate(partners):
            for b in bits(mask):
                assert a != b and partners[b] >> a & 1
                assert _joined_by_path(rows, a, b, ln - 1), (rows, ln, a, b)


def test_cycle_through_last_shares_ends_among_siblings():
    # every child of every class of order <= 6, its masks asked in
    # ascending and in descending order with one ends dict per parent,
    # gets the answer of a search with nothing recorded, and a cycle
    # certified by the recorded ends is one that search finds
    for g in generated(2, 6):
        lengths = range(3, g.order + 2)
        children = [add_vertex(g, s).adj for s in range(1 << g.order)]
        for asked in (children, children[::-1]):
            ends = {}
            for rows in asked:
                for ln in lengths:
                    assert not certified(rows, (ln,), ends) \
                        or has_cycle_through_last(rows, (ln,), {}), (rows, ln)
                    assert has_cycle_through_last(rows, (ln,), ends) \
                        == has_cycle_through_last(rows, (ln,), {}), (rows, ln)
                assert has_cycle_through_last(rows, lengths, ends) \
                    == has_cycle_through_last(rows, lengths, {})
            _check_recorded_ends(children[0], ends)


def _brute_cycles_through(g, s: int, others: int, m: int) -> list[tuple]:
    """In lexicographic order, each sequence s, v1, ..., v_{m-1} of other
    vertices in others that closes a cycle with v1 < v_{m-1}."""
    inside = [v for v in bits(others) if v != s]
    return [(s, *p) for p in itertools.permutations(inside, m - 1)
            if p[0] < p[-1] and g.adj[s] >> p[0] & 1 and g.adj[p[-1]] >> s & 1
            and all(g.adj[a] >> b & 1 for a, b in zip(p, p[1:]))]


def test_cycles_through_lists_the_cycles_inside_others(rng):
    # every class of order <= 6 and every s, against every others mask at
    # orders <= 5 and a sample of masks at order 6
    for g in generated(3, 6):
        k = g.order
        masks = range(1 << k) if k <= 5 else rng.sample(range(1 << k), 16)
        for s in range(k):
            for others in masks:
                for m in range(3, k + 1):
                    got = cycles_through(g.adj, s, others, m, math.inf)
                    assert got == _brute_cycles_through(g, s, others, m), \
                        (g.adj, s, others, m)


def test_cycles_through_stops_at_the_cap(rng):
    # the first cap cycles of the full list, on sampled classes of order 7,
    # random graphs of order 8 and clique unions with and without an apex,
    # which hold many cycles of each length; every s, against the whole
    # vertex set and one sampled others mask
    graphs = [*rng.sample(list(generated(7, 7)), 4),
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
                        assert got == brute[:cap], \
                            (g.adj, s, others, m, cap)


def test_fixed_length_search_is_deterministic():
    g = complete_graph(7)
    w1 = has_cycle_of_length(g.adj, 6)
    w2 = has_cycle_of_length(g.adj, 6)
    assert w1 == w2 == (0, 1, 2, 3, 4, 5)


def test_clique_union_apex_circumference_is_fast():
    # K_1 joined to K_10 + K_10: exactly one apex, so the longest cycle is
    # a Hamiltonian path of one clique closed through the apex.
    big = join(empty_graph(1),
               disjoint_union(complete_graph(10), complete_graph(10)))
    assert circumference(big.adj) == 11


def test_all_longest_cycles_dedup_and_cap(rng):
    cycles, capped = all_cycles_of_length(cycle_graph(6).adj, 6)
    assert len(cycles) == 1 and not capped
    cycles, capped = all_cycles_of_length(complete_graph(5).adj, 5)
    assert len(cycles) == 12 and not capped  # (5-1)!/2
    cycles, capped = all_cycles_of_length(complete_graph(5).adj, 5, cap=5)
    assert len(cycles) == 5 and capped
    for _ in range(30):
        g = random_graph(rng.randint(3, 8), rng.random(), rng)
        h = to_nx(g)
        for m in range(3, g.order + 1):
            want = sum(1 for c in nx.simple_cycles(h, length_bound=m)
                       if len(c) == m)
            assert len(all_cycles_of_length(g.adj, m)[0]) == want


def test_hamiltonicity_and_pancyclicity():
    assert is_hamiltonian(complete_graph(5).adj) is not None
    assert is_hamiltonian(path_graph(5).adj) is None
    g = disjoint_union(cycle_graph(3), cycle_graph(5))
    assert girth(g.adj) == 3 and circumference(g.adj) == 5


# ------------------------------------------------- K_{2,n} and neighborhoods

@pytest.mark.parametrize("n", [1, 2, 3])
def test_k2n_free_matches_embedding_oracle_exhaustive(n):
    for order in range(1, 7):
        for g in generated(order, order):
            assert k2n_free(g.adj, n) == (not brute_force_k2n_present(g, n))


def test_k2n_witness_validates(rng):
    for _ in range(60):
        g = random_graph(rng.randint(2, 9), rng.random(), rng)
        for n in (1, 2, 3):
            wit = find_k2n(g.adj, n)
            assert (wit is None) == k2n_free(g.adj, n)
            if wit is not None:
                assert len(wit.common) >= n
                assert is_k2n_embedding(g, wit.pair, wit.common)


def test_max_common_neighborhood():
    assert max_common_neighborhood(complete_multipartite([2, 3]).adj) == 3
    assert max_common_neighborhood(complete_graph(6).adj) == 4
    assert max_common_neighborhood(empty_graph(4).adj) == 0
    star = complete_multipartite([1, 5])
    assert max_common_neighborhood(star.adj) == 1


# ---------------------------------------------------------------- various

def test_degrees_bipartite_independence(rng):
    for _ in range(50):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        cliques = list(nx.find_cliques(to_nx(complement(g))))
        assert independence_number(g.adj) == max(len(c) for c in cliques)
