import hashlib
import itertools
import time

from ramsey_k2n import enumeration
from ramsey_k2n.canon import canonical_form, canonical_labeling
from ramsey_k2n.enumeration import (
    ALL_GRAPHS,
    AllGraphs,
    GenerationFilter,
    K2nFreeFilter,
    _children,
    enumerate_graphs,
    enumerate_orders,
    enumerate_parallel,
    unlabeled_graph_count,
)
from ramsey_k2n.graphs import (
    Graph,
    add_vertex,
    bits,
    cycle_graph,
    empty_graph,
    encode_graph6,
)
from ramsey_k2n.invariants import k2n_free
from ramsey_k2n.verifier import HamiltonianHypothesisFilter

from conftest import PETERSEN, complete_multipartite

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


def test_candidate_masks_are_exactly_the_k2n_free_extensions():
    # K2nFreeFilter accepts every child of these masks, so they must be
    # exactly the K_{2,n}-free extensions, in increasing order of vertex lists
    for n in range(1, 5):
        flt = K2nFreeFilter(n)
        for order in range(1, 7):
            for g in enumerate_graphs(order, flt):
                brute = [s for s in range(1 << order)
                         if k2n_free(add_vertex(g, s), n)]
                brute.sort(key=lambda s: list(bits(s)))
                assert flt.candidate_masks(g) == brute, (n, encode_graph6(g))


def test_mask_orbits_partition_the_masks_past_the_pretest(monkeypatch):
    orbits = []
    orbit_of = enumeration._orbit_min

    def recorded(mask, tables):
        orbit = orbit_of(mask, tables)
        orbits.append(orbit)
        return orbit

    monkeypatch.setattr(enumeration, "_orbit_min", recorded)
    parents = [(empty_graph(6), ALL_GRAPHS), (cycle_graph(6), ALL_GRAPHS),
               (complete_multipartite([2, 3]), ALL_GRAPHS),
               (cycle_graph(7), K2nFreeFilter(2)), (PETERSEN, K2nFreeFilter(2))]
    for g, flt in parents:
        orbits.clear()
        _, form, auts = canonical_labeling(g)
        assert auts
        list(_children(g, form, auts, flt))
        degrees = [row.bit_count() for row in g.adj]
        top = max(degrees)
        top_mask = sum(1 << v for v in range(g.order) if degrees[v] == top)
        passing = {s for s in flt.candidate_masks(g)
                   if s.bit_count() > top
                   or (s.bit_count() == top and not s & top_mask)}
        covered = set().union(*orbits)
        assert sum(map(len, orbits)) == len(covered)  # pairwise disjoint
        assert covered == passing
        for orbit in orbits:
            for a in auts:
                assert {sum(1 << a[v] for v in bits(s)) for s in orbit} == orbit


def test_children_of_a_highly_symmetric_parent():
    # S_12 acts on the 4,096 masks in 13 orbits, one per class of child
    g = empty_graph(12)
    _, form, auts = canonical_labeling(g)
    start = time.perf_counter()
    children = list(_children(g, form, auts, ALL_GRAPHS))
    assert len(children) == 13
    assert time.perf_counter() - start < 5


def test_c4_free_counts():
    # C_4-free = K_{2,2}-free; at order 4 only K_4, the diamond and C_4
    # itself contain a K_{2,2}, leaving 8 of the 11 classes
    flt = K2nFreeFilter(2)
    counts = [sum(1 for _ in enumerate_graphs(n, flt)) for n in range(1, 8)]
    assert counts == [1, 2, 4, 8, 18, 44, 117]


def test_parallel_equals_sequential():
    flt = K2nFreeFilter(2)
    seq = [encode_graph6(g) for g in enumerate_graphs(7, flt)]
    for workers in (2, 8):
        par = [encode_graph6(g) for g in enumerate_parallel(7, flt, workers)]
        assert par == seq
    one = [encode_graph6(g) for g in enumerate_parallel(7, workers=1)]
    assert len(one) == 1044


def test_one_walk_gives_every_order():
    # orders 3 and 4 lie above the seeds, 5 is theirs, 6-8 come from workers
    flt = K2nFreeFilter(2)
    walk = [encode_graph6(g) for g in enumerate_orders(3, 8, flt)]
    par = [encode_graph6(g) for g in enumerate_orders(3, 8, flt, 2)]
    assert par == walk
    for order in range(1, 9):
        assert [g6 for g6 in walk if ord(g6[0]) - 63 == order] \
            == [encode_graph6(g) for g in enumerate_graphs(order, flt)] * (order >= 3)
    assert list(enumerate_orders(3, 2, flt, 2)) == []


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


# Count and sha256 of the newline-joined graph6 stream of enumerate_graphs,
# recorded before the degree pretest and the orbit acceptance were added to
# _children: generation must emit the same representatives in the same order.
STREAM_FILTERS = {
    "all": ALL_GRAPHS,
    "k2n1": K2nFreeFilter(1),
    "k2n2": K2nFreeFilter(2),
    "k2n3": K2nFreeFilter(3),
    **{f"ham{m}": HamiltonianHypothesisFilter(m) for m in range(3, 8)},
}
STREAMS = {
    ("all", 1): (1, "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae"),
    ("all", 2): (2, "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1"),
    ("all", 3): (4, "f8457640c4aefa16c983bba1ff22c74d2ff5a3b6ca5c176f26be4da6126ed53a"),
    ("all", 4): (11, "7987c3e43eb7bd5c002d1192bb0872905916766ac4236defe27f1109c07de981"),
    ("all", 5): (34, "57c23d76eba6e05bf08c74aad5016fa8f38abfd0b1dd7ba7c7fea5710edc44ca"),
    ("all", 6): (156, "1e26718314feaa48633943752ba442fc9766eb25b596a8bbb262fae037b22074"),
    ("all", 7): (1044, "fe6233997cdd8d2406c66452f0b9a17031159dfdd6906b2f75d08eb1b00e9637"),
    ("k2n1", 1): (1, "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae"),
    ("k2n1", 2): (2, "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1"),
    ("k2n1", 3): (2, "316e74ca312e0c2eed2ebaa6b558d2234fbb5dabc280c8804b1d23b3c20b9ac4"),
    ("k2n1", 4): (3, "109fddbf4a4d23d841a95a07d6594112e89a75d43a3a545365053e3bc20295d0"),
    ("k2n1", 5): (3, "4d599702921614e83ce800859d6d4c1106efcc6508ed1106871d772c555793bc"),
    ("k2n1", 6): (4, "ae5f90f032c0939c3c56251960a5816df61c99ef09699a0ac6f619348dd7cf6b"),
    ("k2n1", 7): (4, "60a0252373c06502e50524422591528b7f00f3934568c6990b5d8ce282652f44"),
    ("k2n1", 8): (5, "7d6b36126e30dce0a9b43414cef6648a0746e6146157f9e9bbc68d9c88b1ed8f"),
    ("k2n1", 9): (5, "9f9c0275712c637614d15b9fd84b20a0ad26cd865183878b14c3f69e83a0d121"),
    ("k2n2", 1): (1, "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae"),
    ("k2n2", 2): (2, "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1"),
    ("k2n2", 3): (4, "f8457640c4aefa16c983bba1ff22c74d2ff5a3b6ca5c176f26be4da6126ed53a"),
    ("k2n2", 4): (8, "67ce48666f1573836ae0987dddcf6190bb6c113523b19fd19cb9fc13779e123a"),
    ("k2n2", 5): (18, "ea59875fbb7952070fe22e6c4a88fc3ccc0fd79340997902a76f420823b8571d"),
    ("k2n2", 6): (44, "82d66306e3531440687e316fb8239e8901abc216d53c7b1537b057b0044ea291"),
    ("k2n2", 7): (117, "be933243ed468e02a5c851af42b35d5d1eb942161ff6e30f95a5c71b2b38039d"),
    ("k2n2", 8): (351, "0133812618f8719da150d8c4d0928f71180c8a4edc31206895e4341d2f6cd1ad"),
    ("k2n2", 9): (1230, "21debb9c1694d35abd96ef9e09fd96c99c2b45a682f19605849cefaf98f00b64"),
    ("k2n3", 1): (1, "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae"),
    ("k2n3", 2): (2, "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1"),
    ("k2n3", 3): (4, "f8457640c4aefa16c983bba1ff22c74d2ff5a3b6ca5c176f26be4da6126ed53a"),
    ("k2n3", 4): (11, "ba7f16d6c23f3c3033f851cd829f3942865f660c971ef018b1b052f4003f1510"),
    ("k2n3", 5): (27, "4507aeb113118731098847f79711292556983bff9b9d8503849aed0dc37dee96"),
    ("k2n3", 6): (95, "8f820b5db5c274c8355676a32545e406c10dacc2baa7f891c22c157e6a04c39c"),
    ("k2n3", 7): (386, "6948e38f5a3b28ba702ef93714c8465c5a9979c5d4e7ed159f1c36c7cae3f9d8"),
    ("k2n3", 8): (2197, "8dca3aebe30d79078fd9885d4f93f1c98a624c264550d1813ca5b5e58c2a2a5d"),
    ("ham3", 4): (3, "254f869a1b0007c3c0460578853e25567fabe0c096c48b446e9393ebe81625df"),
    ("ham4", 5): (6, "bb9c6f67092eba2e9868a65a8401d0bd55ccc3e2ddcc7d611228df4a71859259"),
    ("ham5", 6): (11, "1123f6ff1a530287d40e113e11e49d3536268ff04ba80028d2044cab6674a572"),
    ("ham6", 7): (70, "9518763472b1a72693eb5fc5c60a0102c961eb1c1322bcec7f9f0693b2292217"),
    ("ham7", 8): (144, "141c09b45e204b3d3ba69f300a2994cf4159571c895c60318e59a5fa83f49bbe"),
}


def test_ordered_stream_is_pinned():
    seen = {}
    for name, order in STREAMS:
        flt = STREAM_FILTERS[name]
        stream = [encode_graph6(g) for g in enumerate_graphs(order, flt)]
        digest = hashlib.sha256("\n".join(stream).encode()).hexdigest()
        seen[name, order] = (len(stream), digest)
        par = [encode_graph6(g) for g in enumerate_parallel(order, flt, 2)]
        assert par == stream, (name, order)
    assert seen == STREAMS
