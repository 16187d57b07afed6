import math
import random
import time

import networkx as nx
from networkx.generators.atlas import graph_atlas_g

from ramsey_k2n import enumeration
from ramsey_k2n.canon import (
    _refine,
    canonical_form,
    canonical_labeling,
    orbit_closure,
)
from ramsey_k2n.enumeration import (
    ALL_GRAPHS,
    K2nFreeFilter,
    _children,
    enumerate_orders,
)
from ramsey_k2n.graphs import (
    Graph,
    add_vertex,
    complete_graph,
    cycle_graph,
    complement,
    decode_graph6,
    disjoint_union,
    empty_graph,
    encode_graph6,
    induced_subgraph,
)

from conftest import (
    PETERSEN,
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
    # these previously exploded without automorphism orbit pruning, and the
    # order-16 ones took 33 s while the generators were capped at 64
    for g in [empty_graph(12), complete_graph(12),
              disjoint_union(complete_graph(6), complete_graph(6)),
              complete_multipartite([4, 4, 4]),
              empty_graph(16), complete_graph(16)]:
        start = time.perf_counter()
        perm, form, auts = canonical_labeling(g)
        assert time.perf_counter() - start < 2
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


def group_order(gens: list[tuple[int, ...]], n: int) -> int:
    """Order of the permutation group on range(n) that ``gens`` generate,
    by the Schreier-Sims algorithm with base 0, 1, ..., n-1."""
    ident = tuple(range(n))

    def mul(p, q):  # q, then p
        return tuple(p[x] for x in q)

    def inv(p):
        r = [0] * n
        for i, x in enumerate(p):
            r[x] = i
        return tuple(r)

    def first_moved(p):
        return next(i for i in range(n) if p[i] != i)

    # strong[i]: the strong generators that fix 0..i-1
    strong: list[list[tuple[int, ...]]] = [[] for _ in range(n)]

    def add(p):
        for i in range(first_moved(p) + 1):
            strong[i].append(p)

    def transversal(i):
        """b -> an element of <strong[i]> that maps i to b."""
        t = {i: ident}
        frontier = [i]
        while frontier:
            b = frontier.pop()
            for s in strong[i]:
                if s[b] not in t:
                    t[s[b]] = mul(s, t[b])
                    frontier.append(s[b])
        return t

    def sift(p, i):
        """What is left of p, which fixes 0..i-1, after stripping it
        through levels i, i+1, ...; None if nothing is."""
        for j in range(i, n):
            t = trans[j].get(p[j])
            if t is None:
                return p
            p = mul(inv(t), p)
        return None

    for p in gens:
        if p != ident:
            add(p)
    trans = [transversal(i) for i in range(n)]
    i = n - 1
    while i >= 0:
        # levels above i are complete; level i is once every Schreier
        # generator of its point stabilizer sifts through them
        residue = next((r for b, t in trans[i].items() for s in strong[i]
                        if (r := sift(mul(inv(trans[i][s[b]]), mul(s, t)), i + 1))
                        is not None), None)
        if residue is None:
            i -= 1
        else:
            add(residue)
            i = first_moved(residue)
            trans[:i + 1] = [transversal(j) for j in range(i + 1)]
    return math.prod(map(len, trans))


def nx_automorphism_count(g: Graph) -> int:
    """|Aut(g)| by orbit-stabilizer: fix the vertices one by one and count
    each one's orbit under the stabilizer of those before it, with one
    networkx isomorphism test per candidate image."""
    h = to_nx(g if 4 * g.edge_count() <= g.order * (g.order - 1)
              else complement(g))  # VF2 is slow on dense graphs
    a, b = h.copy(), h.copy()
    nx.set_node_attributes(a, 0, "c")
    nx.set_node_attributes(b, 0, "c")
    count = 1
    for i, v in enumerate(h, 1):
        a.nodes[v]["c"] = i
        orbit = 0
        for w in h:
            if b.nodes[w]["c"] == 0 and h.degree(w) == h.degree(v):
                b.nodes[w]["c"] = i
                orbit += nx.vf2pp_is_isomorphic(a, b, node_label="c")
                b.nodes[w]["c"] = 0
        b.nodes[v]["c"] = i
        count *= orbit
    return count


def test_generators_generate_the_whole_group(rng):
    # every class of order 1..7 and random graphs of order 9..12
    graphs = [from_nx(h) for h in graph_atlas_g() if h.number_of_nodes()]
    graphs += [random_graph(rng.randint(9, 12), rng.random(), rng)
               for _ in range(300)]
    for g in graphs:
        _, _, auts = canonical_labeling(g)
        assert group_order(auts, g.order) == nx_automorphism_count(g), \
            encode_graph6(g)


def test_group_orders_of_symmetric_families():
    f = math.factorial
    cases = [(empty_graph(n), f(n)) for n in range(1, 17)]
    cases += [(complete_graph(n), f(n)) for n in range(1, 17)]
    triangles = complete_graph(3)
    for k in range(2, 6):  # kK_3
        triangles = disjoint_union(triangles, complete_graph(3))
        cases.append((triangles, 6 ** k * f(k)))
    for a, b in [(1, 1), (1, 6), (2, 2), (2, 5), (3, 3), (3, 7), (5, 8), (8, 8)]:
        cases.append((complete_multipartite([a, b]), f(a) * f(b) * (1 + (a == b))))
    cases.append((PETERSEN, 120))
    for g, order in cases:
        _, _, auts = canonical_labeling(g)
        assert group_order(auts, g.order) == order, encode_graph6(g)


def test_orbit_acceptance_is_sound():
    # every accepted child has its new vertex in the orbit of its
    # canonically-last vertex, and deleting that vertex leaves the parent's
    # class.  F?qao and FCOe_ are K_{2,3}-free parents of order 7 with
    # pseudo-similar vertices, where a test that compares the deleted-vertex
    # parent with g also accepts children off the orbit.
    cases = [(order, ALL_GRAPHS) for order in range(2, 8)]
    cases += [(9, K2nFreeFilter(2)), (8, K2nFreeFilter(3))]
    for order, flt in cases:
        accepted = 0
        for g in enumerate_orders(order - 1, order - 1, flt):
            _, form, auts = canonical_labeling(g)
            for child, cauts in _children(g, auts, flt):
                perm, _, _ = canonical_labeling(child)
                assert g.order in orbit_closure((perm[-1],), cauts), child
                parent = induced_subgraph(child, list(perm[:-1]))
                assert canonical_form(parent) == form, child
                accepted += 1
        assert accepted == sum(1 for _ in enumerate_orders(order, order, flt)), order


def test_children_of_parents_with_pseudo_similar_vertices():
    # FCpeg and FCrVG have trivial automorphism groups but pairs of
    # vertices whose deletions are isomorphic, so two masks can give one
    # class.  _children must give each class whose canonical parent is g
    # exactly once: the oracle labels the child of every mask.
    for g6, classes in (("FCpeg", 33), ("FCrVG", 23)):
        g = decode_graph6(g6)
        _, form, auts = canonical_labeling(g)
        oracle = set()
        for s in range(1 << g.order):
            child = add_vertex(g, s)
            perm, cform, _ = canonical_labeling(child)
            if canonical_form(induced_subgraph(child, list(perm[:-1]))) == form:
                oracle.add(cform)
        got = [canonical_form(child) for child, _ in _children(g, auts, ALL_GRAPHS)]
        assert len(got) == len(set(got)) == len(oracle) == classes, g6
        assert set(got) == oracle, g6


def tuple_keyed_refine(adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """The reference: ``_refine`` with each vertex keyed by the tuple of
    its neighbour counts in the cells, which its packed integer keys must
    order the same way."""
    while True:
        masks = [sum(1 << v for v in cell) for cell in cells]
        new_cells = []
        changed = False
        for cell in cells:
            keyed = {}
            for v in cell:
                key = tuple((adj[v] & m).bit_count() for m in masks)
                keyed.setdefault(key, []).append(v)
            changed |= len(keyed) > 1
            new_cells.extend(keyed[key] for key in sorted(keyed))
        if not changed:
            return new_cells
        cells = new_cells


def test_integer_keyed_refinement_equals_tuple_keyed(rng):
    # every class of order 1..7, random graphs of order up to 20, K_64 and
    # K_{1,63}, where a count of 63 must not overflow its field, and
    # K_{1,61} + K_2: with a K_2 end individualized, the other end's key
    # (1, 0) must stay above the star centre's (0, 61)
    graphs = [from_nx(h) for h in graph_atlas_g() if h.number_of_nodes()]
    graphs += [random_graph(rng.randint(1, 20), rng.random(), rng)
               for _ in range(300)]
    graphs += [complete_graph(64), complete_multipartite([1, 63]),
               disjoint_union(complete_multipartite([1, 61]), complete_graph(2))]
    for g in graphs:
        n = g.order
        partitions = [[list(range(n))]]
        for v in {0, n - 1} if n > 1 else ():  # individualized
            partitions.append([[v], [w for w in range(n) if w != v]])
        for cells in partitions:
            assert _refine(g.adj, cells) == tuple_keyed_refine(g.adj, cells), \
                encode_graph6(g)


def test_one_refinement_settles_children_as_full_labeling_would(monkeypatch):
    # Every child _children refines, in three trees, is labeled in full
    # here.  The last refined cell is a union of Aut(child)-orbits holding
    # perm[-1]: a new vertex outside it is off the orbit of perm[-1], and
    # one alone in it is perm[-1].  The children accepted, some of them
    # without a labeling, must be exactly those that pass McKay's rule.
    refine = enumeration._refine
    tried = []

    def recorded(adj, cells):
        base = refine(adj, cells)
        tried.append((adj, base))
        return base

    cases = [(7, ALL_GRAPHS), (9, K2nFreeFilter(2)), (8, K2nFreeFilter(3))]
    settled = {"outside": 0, "alone": 0, "shared": 0}
    for top, flt in cases:
        parents = list(enumerate_orders(1, top - 1, flt))
        with monkeypatch.context() as m:
            m.setattr(enumeration, "_refine", recorded)
            for g in parents:
                k = g.order
                _, _, auts = canonical_labeling(g)
                tried.clear()
                accepted = {child.adj: cauts for child, cauts
                            in _children(g, auts, flt, leaves=True)}
                for adj, base in tried:
                    perm, _, cauts = canonical_labeling(Graph(k + 1, adj))
                    rule = k in orbit_closure((perm[-1],), cauts)
                    assert (adj in accepted) == rule, (encode_graph6(g), adj)
                    last = base[-1]
                    if k not in last:
                        assert not rule
                        settled["outside"] += 1
                    elif last == [k]:
                        assert perm[-1] == k
                        settled["alone"] += 1
                    else:
                        settled["shared"] += 1
                        if rule:
                            assert accepted[adj] == cauts
    assert all(settled.values()), settled
