import itertools

from ramsey_k2n.canon import canonical_form
from ramsey_k2n.enumeration import (
    AllGraphs,
    GenerationFilter,
    K2nFreeFilter,
    enumerate_graphs,
    enumerate_parallel,
    unlabeled_graph_count,
)
from ramsey_k2n.graphs import Graph, encode_graph6
from ramsey_k2n.invariants import k2n_free

KNOWN_COUNTS = [1, 2, 4, 11, 34, 156, 1044, 12346, 274668]


def test_burnside_oracle():
    assert [unlabeled_graph_count(n) for n in range(1, 10)] == KNOWN_COUNTS


def test_counts_match_oracle_up_to_7():
    for order in range(1, 8):
        assert sum(1 for _ in enumerate_graphs(order)) \
            == unlabeled_graph_count(order)


def test_no_duplicates_and_matches_labeled_dedup():
    # brute force: dedup all 2^10 labeled graphs on 5 vertices
    forms = set()
    for bits_ in range(1 << 10):
        adj = [0] * 5
        for k, (u, v) in enumerate(itertools.combinations(range(5), 2)):
            if bits_ >> k & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        forms.add(canonical_form(Graph(5, tuple(adj))))
    generated = [canonical_form(g) for g in enumerate_graphs(5)]
    assert len(generated) == len(set(generated))  # injective
    assert set(generated) == forms


def test_hereditary_pruning_soundness():
    for n in (2, 3):
        flt = K2nFreeFilter(n)
        for order in range(1, 7):
            pruned = {canonical_form(g) for g in enumerate_graphs(order, flt)}
            filtered = {canonical_form(g) for g in enumerate_graphs(order)
                        if k2n_free(g, n)}
            assert pruned == filtered


def test_c4_free_counts():
    # C_4-free = K_{2,2}-free; at order 4 only K_4, the diamond and C_4
    # itself contain a K_{2,2}, leaving 8 of the 11 classes
    flt = K2nFreeFilter(2)
    counts = [sum(1 for _ in enumerate_graphs(n, flt)) for n in range(1, 8)]
    assert counts == [1, 2, 4, 8, 18, 44, 117]


def test_parallel_equals_sequential():
    flt = K2nFreeFilter(2)
    seq = sorted(encode_graph6(g) for g in enumerate_graphs(7, flt))
    for workers in (2, 8):
        par = sorted(encode_graph6(g)
                     for g in enumerate_parallel(7, flt, workers))
        assert par == seq
    one = sorted(encode_graph6(g) for g in enumerate_parallel(7, workers=1))
    assert len(one) == 1044


class TriangleFree(GenerationFilter):
    def accepts(self, g: Graph) -> bool:
        return all(not (g.adj[u] & g.adj[v])
                   for u in range(g.order) for v in range(u + 1, g.order)
                   if g.adj[u] >> v & 1)


def test_custom_predicate_filter():
    flt = TriangleFree()
    counts = [sum(1 for _ in enumerate_graphs(n, flt)) for n in range(1, 8)]
    assert counts == [1, 2, 3, 7, 14, 38, 107]  # triangle-free classes


def test_all_graphs_filter_is_default():
    assert isinstance(AllGraphs(), AllGraphs)
    a = [encode_graph6(g) for g in enumerate_graphs(5)]
    b = [encode_graph6(g) for g in enumerate_graphs(5, AllGraphs())]
    assert a == b
