import random

import networkx as nx
from networkx.generators.atlas import graph_atlas_g

from ramsey_k2n.canon import canonical_form, canonical_labeling
from ramsey_k2n.enumeration import (
    ALL_GRAPHS,
    K2nFreeFilter,
    _children,
    _in_orbit,
    enumerate_graphs,
)
from ramsey_k2n.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    induced_subgraph,
)

from conftest import (
    complete_multipartite,
    from_nx,
    path_graph,
    random_graph,
    relabel,
    to_nx,
)


def shuffled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.order))
    rng.shuffle(perm)
    return relabel(g, tuple(perm))


def test_relabeling_invariance(rng):
    for _ in range(100):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        assert canonical_form(g) == canonical_form(shuffled(g, rng))


def test_distinguishes_nonisomorphic_pairs(rng):
    # path vs star on 4 vertices: same degree-sequence-free counts differ
    star = complete_multipartite([1, 3])
    assert canonical_form(path_graph(4)) != canonical_form(star)
    # C_6 vs 2*C_3: same order and size, different structure
    assert canonical_form(cycle_graph(6)) != canonical_form(
        disjoint_union(cycle_graph(3), cycle_graph(3)))


def test_agrees_with_networkx(rng):
    for _ in range(200):
        n = rng.randint(1, 7)
        g = random_graph(n, rng.random(), rng)
        h = random_graph(n, rng.random(), rng)
        same = canonical_form(g) == canonical_form(h)
        assert same == nx.is_isomorphic(to_nx(g), to_nx(h))


def test_automorphisms_are_valid(rng):
    for g in [cycle_graph(6), complete_multipartite([3, 3]),
              random_graph(8, 0.4, rng), complete_graph(5)]:
        _, _, auts = canonical_labeling(g)
        for a in auts:
            assert relabel(g, a) == g
            assert sorted(a) == list(range(g.order))


def test_canonical_permutation_is_consistent(rng):
    for _ in range(50):
        g = random_graph(rng.randint(2, 8), rng.random(), rng)
        perm, form, _ = canonical_labeling(g)
        inv = [0] * g.order
        for pos, v in enumerate(perm):
            inv[v] = pos
        assert canonical_form(relabel(g, tuple(inv))) == form


def test_canonical_parent_well_defined(rng):
    # the parent left by deleting the canonically-last vertex must be an
    # isomorphism invariant of the child, even when several labelings tie
    def parent(g: Graph) -> Graph:
        perm, _, _ = canonical_labeling(g)
        return induced_subgraph(g, list(perm[:-1]))

    for _ in range(50):
        g = random_graph(rng.randint(2, 8), rng.random(), rng)
        p1 = parent(g)
        p2 = parent(shuffled(g, rng))
        assert canonical_form(p1) == canonical_form(p2)
        assert p1.order == g.order - 1


def test_symmetric_graphs_fast():
    # these previously exploded without automorphism orbit pruning
    for g in [empty_graph(12), complete_graph(12),
              disjoint_union(complete_graph(6), complete_graph(6)),
              complete_multipartite([4, 4, 4])]:
        perm, form, auts = canonical_labeling(g)
        assert canonical_form(relabel(g, perm)) is not None
        assert auts  # symmetric graphs must expose generators


def test_last_canonical_vertex_has_maximum_degree(rng):
    # enumeration._children rejects extensions on this property alone;
    # checked on every class of order 1..7 and random graphs of order 8..12
    graphs = [from_nx(h) for h in graph_atlas_g() if h.number_of_nodes()]
    graphs += [random_graph(rng.randint(8, 12), rng.random(), rng)
               for _ in range(300)]
    for g in graphs:
        perm, _, _ = canonical_labeling(g)
        top = max(row.bit_count() for row in g.adj)
        assert g.adj[perm[-1]].bit_count() == top, g


def _orbit_accepted(order: int, flt) -> list[tuple[Graph, tuple, bytes]]:
    """(child, its canonical perm, parent form) for every child of the given
    order that _children accepts by orbit, i.e. without labeling the parent."""
    out = []
    for g in enumerate_graphs(order - 1, flt):
        _, form, auts = canonical_labeling(g)
        for child, _, cauts in _children(g, form, auts, flt):
            perm, _, _ = canonical_labeling(child)
            if _in_orbit(g.order, perm[-1], cauts):
                out.append((child, perm, form))
    return out


def test_orbit_acceptance_is_sound():
    # deleting the canonically-last vertex must leave the parent's class
    cases = [(order, ALL_GRAPHS) for order in range(2, 8)]
    cases.append((9, K2nFreeFilter(2)))
    for order, flt in cases:
        accepted = _orbit_accepted(order, flt)
        assert accepted, order
        for child, perm, form in accepted:
            parent = induced_subgraph(child, list(perm[:-1]))
            assert canonical_form(parent) == form, child
