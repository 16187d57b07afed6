import hashlib
import math
import random
import time

import networkx as nx
from networkx.generators.atlas import graph_atlas_g

from ramsey_k2n import canon, enumeration
from ramsey_k2n.canon import _refine, canonical_labeling, orbit_closure
from ramsey_k2n.enumeration import (
    ALL_GRAPHS,
    K2nFreeFilter,
    _children,
)
from ramsey_k2n.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    complement,
    decode_graph6,
    disjoint_union,
    empty_graph,
    encode_graph6,
)

from conftest import (
    PETERSEN,
    add_vertex,
    canonical_form,
    complete_multipartite,
    from_nx,
    generated,
    induced_subgraph,
    path_graph,
    random_graph,
    relabel,
    to_nx,
    unit_refinement,
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
        _, _, auts = canonical_labeling(g.adj)
        for a in auts:
            assert relabel(g, a) == g
            assert sorted(a) == list(range(g.order))


def test_canonical_permutation_is_consistent(rng):
    for _ in range(50):
        g = random_graph(rng.randint(2, 8), rng.random(), rng)
        perm, form, _ = canonical_labeling(g.adj)
        inv = [0] * g.order
        for pos, v in enumerate(perm):
            inv[v] = pos
        assert canonical_form(relabel(g, tuple(inv))) == form


def test_canonical_parent_well_defined(rng):
    # the parent left by deleting the canonically-last vertex must be an
    # isomorphism invariant of the child, even when several labelings tie
    def parent(g: Graph) -> Graph:
        perm, _, _ = canonical_labeling(g.adj)
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
        perm, form, auts = canonical_labeling(g.adj)
        assert time.perf_counter() - start < 2
        assert canonical_form(relabel(g, perm)) is not None
        assert auts  # symmetric graphs must expose generators


def test_labeling_of_every_class_to_order_8_is_pinned():
    # one sha256 over (adj, perm, form) of the 13,598 classes of order <= 8:
    # pruning may change the generators, never the labeling
    digest = hashlib.sha256()
    for g in generated(1, 8):
        perm, form, _ = canonical_labeling(g.adj)
        digest.update(repr((g.adj, perm, form)).encode())
    assert digest.hexdigest() == \
        "ce60fdc3cca9ffb0bf9a9ccc6210abd4233f04df6f92ad2602258f3c01ba4fb4"


def test_empty_and_complete_graphs_get_one_generator_per_level():
    # a tying leaf sends the search back to where its path parts from the
    # best one, so each level of the individualization tree adds one
    # transposition, not one per leaf of its subtree: n - 1, not n(n-1)/2
    for n in range(1, 17):
        for g in (empty_graph(n), complete_graph(n)):
            assert len(canonical_labeling(g.adj)[2]) == n - 1, g


def reference_labeling(g: Graph):
    """``canonical_labeling`` without the jump back on a tying leaf: every
    child of a node is searched unless its vertex lies in the orbit of a
    tried sibling under the generators found so far that fix the node."""
    n = g.order
    adj = g.adj
    best = None  # (form, perm)
    auts = []

    def rec(cells):
        nonlocal best
        idx = next((i for i, cell in enumerate(cells) if len(cell) > 1), -1)
        if idx < 0:
            perm = tuple(cell[0] for cell in cells)
            form = canon._pack(adj, perm, n)
            if best is None or form < best[0]:
                best = (form, perm)
            elif form == best[0]:
                aut = [0] * n
                for a, b in zip(best[1], perm):
                    aut[a] = b
                auts.append(tuple(aut))
            return
        fixed = [cell[0] for cell in cells if len(cell) == 1]
        tried = []
        for v in cells[idx]:
            fixing = [a for a in auts if all(a[f] == f for f in fixed)]
            if v in orbit_closure(tried, fixing):
                continue
            tried.append(v)
            rest = [w for w in cells[idx] if w != v]
            rec(_refine(adj, cells[:idx] + [[v], rest] + cells[idx + 1:],
                        [1 << v]))

    rec(unit_refinement(g))
    return best[1], best[0], auts


def test_labeling_equals_search_without_the_jump(rng):
    # the jump skips only images of searched leaves, so perm and form are
    # the reference search's, with no more generators; random graphs of
    # order 9..16, unions of equal cliques and complete multipartite graphs
    graphs = [random_graph(rng.randint(9, 16), rng.random(), rng)
              for _ in range(600)]
    for size in range(1, 9):
        clique = union = complete_graph(size)
        for _ in range(16 // size - 1):
            union = disjoint_union(union, clique)
            graphs.append(union)
            graphs.append(complement(union))  # complete multipartite
    graphs += [complete_multipartite(parts) for parts in
               ([1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 1, 2, 2, 3],
                [2, 2, 3, 3], [1, 5, 5], [4, 4, 4, 4])]
    for g in graphs:
        perm, form, auts = canonical_labeling(g.adj)
        ref_perm, ref_form, ref_auts = reference_labeling(g)
        assert (perm, form) == (ref_perm, ref_form), encode_graph6(g)
        assert len(auts) <= len(ref_auts), encode_graph6(g)


def test_last_canonical_vertex_has_maximum_degree(rng):
    # enumeration._children rejects extensions on this property alone;
    # checked on every class of order 1..7 and random graphs of order 8..12
    graphs = [from_nx(h) for h in graph_atlas_g() if h.number_of_nodes()]
    graphs += [random_graph(rng.randint(8, 12), rng.random(), rng)
               for _ in range(300)]
    for g in graphs:
        perm, _, _ = canonical_labeling(g.adj)
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
        _, _, auts = canonical_labeling(g.adj)
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
        _, _, auts = canonical_labeling(g.adj)
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
        for g in generated(order - 1, order - 1, flt):
            _, form, auts = canonical_labeling(g.adj)
            for rows, cauts, _ in _children(g.adj, auts, unit_refinement(g),
                                            flt):
                child = Graph(len(rows), rows)
                perm, _, own = canonical_labeling(rows)
                if cauts is None:  # accepted by one refinement, unlabeled
                    cauts = own
                assert g.order in orbit_closure((perm[-1],), cauts), child
                parent = induced_subgraph(child, list(perm[:-1]))
                assert canonical_form(parent) == form, child
                accepted += 1
        assert accepted == sum(1 for _ in generated(order, order, flt)), order


def test_children_of_parents_with_pseudo_similar_vertices():
    # FCpeg and FCrVG have trivial automorphism groups but pairs of
    # vertices whose deletions are isomorphic, so two masks can give one
    # class.  _children must give each class whose canonical parent is g
    # exactly once: the oracle labels the child of every mask.
    for g6, classes in (("FCpeg", 33), ("FCrVG", 23)):
        g = decode_graph6(g6)
        _, form, auts = canonical_labeling(g.adj)
        oracle = set()
        for s in range(1 << g.order):
            child = add_vertex(g, s)
            perm, cform, _ = canonical_labeling(child.adj)
            if canonical_form(induced_subgraph(child, list(perm[:-1]))) == form:
                oracle.add(cform)
        got = [canonical_labeling(rows)[1] for rows, _, _
               in _children(g.adj, auts, unit_refinement(g), ALL_GRAPHS)]
        assert len(got) == len(set(got)) == len(oracle) == classes, g6
        assert set(got) == oracle, g6


def tuple_keyed_refine(adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """The reference: ``_refine`` with each vertex keyed, every round, by
    the tuple of its neighbour counts in every cell, which its packed
    integer keys in the splitters alone must order the same way."""
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
    # _refine keys each vertex only by its counts in the splitters: first
    # those the caller names, then the fragments each round split off but
    # the last of each cell.  The reference keys it by its counts in every
    # cell.  They must give the same ordered partitions from the unit
    # partition (the whole vertex mask as splitter), at every node of the
    # individualization tree (v individualized in an equitable partition,
    # 1 << v as splitter; at most 200 nodes a graph) and from partitions
    # that are not equitable (every cell a splitter).  The graphs: every
    # class of order 1..7, random graphs of order up to 30, K_64 and
    # K_{1,63}, where a count of 63 must not overflow its field, and
    # K_{1,61} + K_2: with a K_2 end individualized, the other end's key
    # (1, 0) must stay above the star centre's (0, 61)
    graphs = [from_nx(h) for h in graph_atlas_g() if h.number_of_nodes()]
    graphs += [random_graph(rng.randint(1, 30), rng.random(), rng)
               for _ in range(300)]
    graphs += [complete_graph(64), complete_multipartite([1, 63]),
               disjoint_union(complete_multipartite([1, 61]), complete_graph(2))]

    def mask(cell):
        return sum(1 << v for v in cell)

    for g in graphs:
        n = g.order
        adj = g.adj
        base = tuple_keyed_refine(adj, [list(range(n))])
        assert _refine(adj, [list(range(n))], [(1 << g.order) - 1]) == base, \
            encode_graph6(g)
        todo = [base]
        nodes = 0
        while todo and nodes < 200:
            cells = todo.pop(0)
            idx = next((i for i, c in enumerate(cells) if len(c) > 1), None)
            if idx is None:
                continue
            for v in cells[idx][:200 - nodes]:
                rest = [w for w in cells[idx] if w != v]
                split = cells[:idx] + [[v], rest] + cells[idx + 1:]
                want = tuple_keyed_refine(adj, split)
                assert _refine(adj, split, [1 << v]) == want, \
                    (encode_graph6(g), v)
                todo.append(want)
                nodes += 1
        partitions = [[[v], [w for w in range(n) if w != v]]
                      for v in ({0, n - 1} if n > 1 else ())]
        labels = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
        order = rng.sample(sorted(set(labels)), len(set(labels)))
        partitions.append([[v for v in range(n) if labels[v] == c]
                           for c in order])
        for cells in partitions:
            assert _refine(adj, cells, [mask(c) for c in cells]) == \
                tuple_keyed_refine(adj, cells), encode_graph6(g)


def test_labeling_with_reference_refinement_is_identical(rng, monkeypatch):
    # canonical_labeling gives the same perm, form and generators when
    # every refinement keys each vertex by its counts in every cell
    graphs = [from_nx(h) for h in graph_atlas_g() if h.number_of_nodes()]
    graphs += [random_graph(rng.randint(9, 14), rng.random(), rng)
               for _ in range(300)]
    got = [canonical_labeling(g.adj) for g in graphs]
    monkeypatch.setattr(canon, "_refine", lambda adj, cells, splitters:
                        tuple_keyed_refine(adj, cells))
    for g, labeling in zip(graphs, got):
        assert canonical_labeling(g.adj) == labeling, encode_graph6(g)


def test_one_refinement_settles_children_as_full_labeling_would(monkeypatch):
    # Every child _children refines, in three trees, is labeled in full
    # here.  The last refined cell is a union of Aut(child)-orbits holding
    # perm[-1]: a new vertex outside it is off the orbit of perm[-1], and
    # one alone in it is perm[-1].  The children accepted, some of them
    # without a labeling, must be exactly those that pass McKay's rule, and
    # each carries its refinement, which an unlabeled one is labeled from.
    # _children names the new vertex, so its refinement stops once that
    # vertex leaves the last cell; a kept child's must be the full one.
    # Children of the tree's top order are only settled, as the walk
    # settles its leaves: their refinement also stops once the new vertex
    # is alone in the last cell, so only a shared one's must be full.
    refine = enumeration._refine
    tried = []

    def recorded(adj, cells, splitters, stay, settle):
        base = refine(adj, cells, splitters, stay, settle)
        tried.append((adj, base, refine(adj, cells, splitters)))
        return base

    cases = [(7, ALL_GRAPHS), (9, K2nFreeFilter(2)), (8, K2nFreeFilter(3))]
    settled = {"outside": 0, "stopped": 0, "alone": 0, "shared": 0,
               "leaf outside": 0, "leaf alone": 0, "leaf alone early": 0,
               "leaf shared": 0}
    for top, flt in cases:
        parents = list(generated(1, top - 1, flt))
        with monkeypatch.context() as m:
            m.setattr(enumeration, "_refine", recorded)
            for g in parents:
                k = g.order
                leaves = k == top - 1
                _, _, auts = canonical_labeling(g.adj)
                tried.clear()
                accepted = {child: (cauts, cbase) for child, cauts, cbase
                            in _children(g.adj, auts, unit_refinement(g), flt,
                                         leaves)}
                for adj, base, full in tried:
                    perm, _, cauts = canonical_labeling(adj)
                    if adj in accepted:
                        assert accepted[adj][1] is base
                    rule = k in orbit_closure((perm[-1],), cauts)
                    assert (adj in accepted) == rule, (encode_graph6(g), adj)
                    last = base[-1]
                    prefix = "leaf " if leaves else ""
                    if k not in last:
                        assert not rule and k not in full[-1]
                        settled[prefix + "outside"] += 1
                        if not leaves:
                            settled["stopped"] += base != full
                        continue
                    if last == [k]:
                        assert full[-1] == [k], (encode_graph6(g), adj)
                        assert perm[-1] == k and accepted[adj][0] is None
                        settled[prefix + "alone"] += 1
                        if leaves:  # a leaf's refinement is never used
                            settled["leaf alone early"] += base != full
                            continue
                        assert base == full, (encode_graph6(g), adj)
                        assert canonical_labeling(adj, base) == \
                            canonical_labeling(adj)
                    else:
                        assert base == full, (encode_graph6(g), adj)
                        settled[prefix + "shared"] += 1
                        if rule:
                            assert accepted[adj][0] == cauts
    assert all(settled.values()), settled
