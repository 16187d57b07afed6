import itertools
import math

import networkx as nx
import pytest

from ramsey_k2n.enumeration import enumerate_graphs
from ramsey_k2n.graphs import (
    Graph,
    GraphError,
    complement,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    disjoint_union,
    empty_graph,
    join,
    path_graph,
    union_neighborhood_excl,
)
from ramsey_k2n.invariants import (
    PatternParams,
    all_cycles_of_length,
    circumference,
    connectivity,
    cycle_spectrum,
    find_k2n,
    girth,
    has_cycle_of_length,
    independence_number,
    is_bipartite,
    is_connected,
    is_hamiltonian,
    is_weakly_pancyclic,
    k2n_free,
    longest_cycle,
    max_common_neighborhood,
    max_degree,
    min_degree,
)

from conftest import random_graph
from test_graphs import to_nx


# ---------------------------------------------------------------- patterns

def test_pattern_params_chromatic_data():
    assert PatternParams.cycle(6).chi == 2
    assert PatternParams.cycle(6).sigma == 3
    assert PatternParams.cycle(7).chi == 3
    assert PatternParams.cycle(7).sigma == 1
    assert PatternParams.k2n(5).chi == 2
    assert PatternParams.k2n(5).sigma == 2
    with pytest.raises(GraphError):
        PatternParams.k2n(1)
    with pytest.raises(GraphError):
        PatternParams.cycle_pair(6).chi  # noqa: B018


def test_burr_lower_bound():
    # (g_order-1)(chi-1) + sigma
    assert PatternParams.k2n(3).burr_lower_bound(6) == 7
    assert PatternParams.cycle(7).burr_lower_bound(10) == 19


# ------------------------------------------------------------ connectivity

def test_connectivity_matches_networkx(rng):
    for _ in range(100):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        assert connectivity(g) == nx.node_connectivity(to_nx(g))


def test_connectivity_known_values():
    assert connectivity(complete_graph(5)) == 4
    assert connectivity(cycle_graph(7)) == 2
    assert connectivity(path_graph(4)) == 1
    assert connectivity(disjoint_union(complete_graph(2), complete_graph(2))) == 0
    assert is_connected(cycle_graph(4))
    assert not is_connected(disjoint_union(empty_graph(1), empty_graph(1)))


# ------------------------------------------------------------------ cycles

def nx_cycle_lengths(g: Graph) -> set[int]:
    return {len(c) for c in nx.simple_cycles(to_nx(g)) if len(c) >= 3}


def test_cycle_spectrum_matches_networkx(rng):
    for _ in range(60):
        g = random_graph(rng.randint(3, 8), rng.random(), rng)
        assert cycle_spectrum(g) == nx_cycle_lengths(g)


def test_girth_and_circumference(rng):
    assert girth(cycle_graph(7)) == 7
    assert circumference(cycle_graph(7)) == 7
    assert girth(path_graph(5)) == math.inf
    assert circumference(path_graph(5)) == 0
    assert girth(complete_graph(6)) == 3
    assert circumference(complete_graph(6)) == 6
    for _ in range(40):
        g = random_graph(rng.randint(3, 8), rng.random(), rng)
        lengths = nx_cycle_lengths(g)
        assert circumference(g) == (max(lengths) if lengths else 0)
        assert girth(g) == (min(lengths) if lengths else math.inf)


def test_cycle_witness_validates(rng):
    for _ in range(40):
        g = random_graph(rng.randint(3, 9), rng.random(), rng)
        wit = longest_cycle(g)
        if wit is not None:
            wit.validate(g)  # raises on a bogus cycle
        for m in range(3, g.order + 3):
            w = has_cycle_of_length(g, m)
            assert (w is not None) == (m in cycle_spectrum(g))
            if w is not None:
                assert len(w.vertices) == m
                w.validate(g)
        with pytest.raises(GraphError):
            has_cycle_of_length(g, 2)


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
    assert is_weakly_pancyclic(complete_graph(6))
    assert is_weakly_pancyclic(cycle_graph(9))
    assert is_weakly_pancyclic(path_graph(4))  # forest: vacuous
    # C_4 with a pendant triangle sharing a vertex: girth 3, circ 4, no C_3..
    # actually has both 3 and 4: construct girth-3 circumference-5 gap graph
    g = disjoint_union(cycle_graph(3), cycle_graph(5))
    assert girth(g) == 3 and circumference(g) == 5
    assert not is_weakly_pancyclic(g)  # no C_4


# ------------------------------------------------- K_{2,n} and neighborhoods

def brute_force_k2n_present(g: Graph, n: int) -> bool:
    """Literal K_{2,n} embedding search: two centers plus n common leaves."""
    for u, v in itertools.combinations(range(g.order), 2):
        leaves = [w for w in range(g.order)
                  if w not in (u, v)
                  and g.adj[u] >> w & 1 and g.adj[v] >> w & 1]
        if len(leaves) >= n:
            return True
    return False


@pytest.mark.parametrize("n", [1, 2, 3])
def test_k2n_free_matches_embedding_oracle_exhaustive(n):
    for order in range(1, 7):
        for g in enumerate_graphs(order):
            assert k2n_free(g, n) == (not brute_force_k2n_present(g, n))


def test_k2n_witness_validates(rng):
    for _ in range(60):
        g = random_graph(rng.randint(2, 9), rng.random(), rng)
        for n in (1, 2, 3):
            wit = find_k2n(g, n)
            assert (wit is None) == k2n_free(g, n)
            if wit is not None:
                assert len(wit.common) >= n
                wit.validate(g)


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
    assert (min_degree(path_graph(4)), max_degree(path_graph(4))) == (1, 2)
    assert is_bipartite(cycle_graph(8))
    assert not is_bipartite(cycle_graph(7))
    for _ in range(50):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        assert is_bipartite(g) == nx.is_bipartite(to_nx(g))
        cliques = list(nx.find_cliques(to_nx(complement(g))))
        assert independence_number(g) == max(len(c) for c in cliques)
