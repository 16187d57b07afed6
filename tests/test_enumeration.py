import hashlib
import itertools
import pickle
import time
from types import SimpleNamespace

from ramsey_k2n import enumeration
from ramsey_k2n.canon import canonical_form, canonical_labeling
from ramsey_k2n.enumeration import (
    ALL_GRAPHS,
    GenerationFilter,
    K2nFreeFilter,
    _children,
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
from ramsey_k2n.verifier import HamiltonianHypothesisFilter, RamseyFilter

from conftest import PETERSEN, complete_multipartite

KNOWN_COUNTS = [1, 2, 4, 11, 34, 156, 1044, 12346, 274668]


def test_burnside_oracle():
    assert [unlabeled_graph_count(n) for n in range(1, 10)] == KNOWN_COUNTS


def test_counts_match_oracle_up_to_7():
    for order in range(1, 8):
        assert sum(1 for _ in enumerate_orders(order, order)) \
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
    generated = [canonical_form(g) for g in enumerate_orders(5, 5)]
    assert len(generated) == len(set(generated))  # injective
    assert set(generated) == forms


def test_hereditary_pruning_soundness():
    for n in (2, 3):
        flt = K2nFreeFilter(n)
        for order in range(1, 7):
            pruned = {canonical_form(g) for g in enumerate_orders(order, order, flt)}
            filtered = {canonical_form(g) for g in enumerate_orders(order, order)
                        if k2n_free(g, n)}
            assert pruned == filtered


def test_candidate_masks_are_exactly_the_k2n_free_extensions():
    # K2nFreeFilter accepts every child of these masks, so they must be
    # exactly the K_{2,n}-free extensions, in increasing order of vertex lists
    for n in range(1, 5):
        flt = K2nFreeFilter(n)
        for order in range(1, 7):
            for g in enumerate_orders(order, order, flt):
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
        _, _, auts = canonical_labeling(g)
        assert auts
        list(_children(g, auts, flt))
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
    _, _, auts = canonical_labeling(g)
    start = time.perf_counter()
    children = list(_children(g, auts, ALL_GRAPHS))
    assert len(children) == 13
    assert time.perf_counter() - start < 5


def test_c4_free_counts():
    # C_4-free = K_{2,2}-free; at order 4 only K_4, the diamond and C_4
    # itself contain a K_{2,2}, leaving 8 of the 11 classes.  The counts
    # are the terms of OEIS A006786 (squarefree graphs on n nodes); the
    # acceptance gate checks order 11 (25,181).
    counts = [0] * 10
    for g in enumerate_orders(1, 10, K2nFreeFilter(2)):
        counts[g.order - 1] += 1
    assert counts == [1, 2, 4, 8, 18, 44, 117, 351, 1230, 5069]


def test_parallel_equals_sequential():
    flt = K2nFreeFilter(2)
    seq = [encode_graph6(g) for g in enumerate_orders(7, 7, flt)]
    for workers in (2, 8):
        par = [encode_graph6(g) for g in enumerate_parallel(7, flt, workers)]
        assert par == seq
    one = [encode_graph6(g) for g in enumerate_parallel(7, workers=1)]
    assert len(one) == 1044
    # lowest above the seed order, and highest at or below it
    for lowest, highest in ((6, 8), (1, 4)):
        runs = [[encode_graph6(g) for g in enumerate_orders(lowest, highest, flt, w)]
                for w in (1, 2, 3)]
        assert runs[0] and runs[1] == runs[0] and runs[2] == runs[0]


def test_worker_pool_has_at_most_one_process_per_seed(monkeypatch):
    # a pool that records its size and runs imap in this process
    sizes = []

    class Pool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items):
            return map(fn, items)

    # every labeling, in the workers too, since they run in this process
    labelings = []

    def counted(g, *rest):
        labelings.append(g.order)
        return canonical_labeling(g, *rest)

    monkeypatch.setattr(enumeration, "get_context",
                        lambda method: SimpleNamespace(Pool=Pool))
    monkeypatch.setattr(enumeration, "canonical_labeling", counted)
    flt = K2nFreeFilter(2)
    walk = [encode_graph6(g) for g in enumerate_orders(1, 7, flt)]
    sequential = len(labelings)
    assert [encode_graph6(g) for g in enumerate_orders(1, 7, flt, 1000)] == walk
    assert sizes == [18]  # the C_4-free classes of order 5
    # a seed travels with its generators: it is labeled once, not again
    assert len(labelings) == 2 * sequential
    labelings.clear()
    walk = [encode_graph6(g) for g in enumerate_orders(1, 7)]
    sequential = len(labelings)
    assert [encode_graph6(g) for g in enumerate_orders(1, 7, workers=2)] == walk
    assert len(labelings) == 2 * sequential
    # matchings whose complement has no triangle stop at order 4: no seed
    sizes.clear()
    flt = RamseyFilter(1, (3,))
    walk = [encode_graph6(g) for g in enumerate_orders(1, 12, flt)]
    assert len(walk) == 5
    assert [encode_graph6(g) for g in enumerate_orders(1, 12, flt, 2)] == walk
    assert sizes == []


def test_graph_survives_pickling():
    # workers send their Graphs back pickled, and Graph is a frozen,
    # slotted dataclass: unpickling must not trip over the frozen fields
    for g in (empty_graph(1), PETERSEN, complete_multipartite([2, 3])):
        h = pickle.loads(pickle.dumps(g))
        assert h == g and h.adj == g.adj and type(h) is Graph


def test_one_walk_gives_every_order():
    # orders 3 and 4 lie above the seeds, 5 is theirs, 6-8 come from workers
    flt = K2nFreeFilter(2)
    walk = [encode_graph6(g) for g in enumerate_orders(3, 8, flt)]
    par = [encode_graph6(g) for g in enumerate_orders(3, 8, flt, 2)]
    assert par == walk
    for order in range(1, 9):
        alone = [encode_graph6(g) for g in enumerate_orders(order, order, flt)]
        assert [g6 for g6 in walk if ord(g6[0]) - 63 == order] \
            == alone * (order >= 3)
    assert list(enumerate_orders(3, 2, flt, 2)) == []


class TriangleFree(GenerationFilter):
    def accepts(self, g: Graph) -> bool:
        return all(not (g.adj[u] & g.adj[v])
                   for u in range(g.order) for v in range(u + 1, g.order)
                   if g.adj[u] >> v & 1)


def test_custom_predicate_filter():
    flt = TriangleFree()
    counts = [sum(1 for _ in enumerate_orders(n, n, flt)) for n in range(1, 8)]
    assert counts == [1, 2, 3, 7, 14, 38, 107]  # triangle-free classes


def test_all_graphs_filter_is_default():
    a = [encode_graph6(g) for g in enumerate_orders(5, 5)]
    b = [encode_graph6(g) for g in enumerate_orders(5, 5, GenerationFilter())]
    assert a == b


# Per case: the count, the sha256 of the newline-joined sorted canonical
# forms (hex), which pins the set of classes, and the sha256 of the
# newline-joined graph6 stream of enumerate_orders(order, order, flt), which
# pins the emitted representatives and their order.  A change to the acceptance rule may
# move a representative, and so an ordered digest, only while every class
# digest holds.
STREAM_FILTERS = {
    "all": ALL_GRAPHS,
    "k2n1": K2nFreeFilter(1),
    "k2n2": K2nFreeFilter(2),
    "k2n3": K2nFreeFilter(3),
    **{f"ham{m}": HamiltonianHypothesisFilter(m) for m in range(3, 8)},
}
STREAMS = {
    ("all", 1): (1,
                 "5e7b571a60a7c187d6a4cb8bbedbe4e69d4caa49b51d9ddf3320afd793f146bf",
                 "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae"),
    ("all", 2): (2,
                 "d37e8acb01d34f7c8b1102021ae2a86e8d23cbbb6add4efa73dd6417db7c1423",
                 "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1"),
    ("all", 3): (4,
                 "5859fc9908a9492620a0c3c1104e39e6f1ce56e85fccd0cbbdbaf9b997243d85",
                 "f8457640c4aefa16c983bba1ff22c74d2ff5a3b6ca5c176f26be4da6126ed53a"),
    ("all", 4): (11,
                 "0eaa87752cdd87443b7c673e9c8c59a027fc52d27f6e537f008a065da9d43b86",
                 "7987c3e43eb7bd5c002d1192bb0872905916766ac4236defe27f1109c07de981"),
    ("all", 5): (34,
                 "990fb9a4825385fd608446fc3e745b6cef22298314284a498cfc4025a8f0f63d",
                 "57c23d76eba6e05bf08c74aad5016fa8f38abfd0b1dd7ba7c7fea5710edc44ca"),
    ("all", 6): (156,
                 "d56b57ae53bb7bac015490b55da2535fcc58d1eec16bfa7546b73f815b4eafa0",
                 "1e26718314feaa48633943752ba442fc9766eb25b596a8bbb262fae037b22074"),
    ("all", 7): (1044,
                 "86608ccf965b9105e27d44cc752f7e766b4a49a08a692e6efc51c6a355c7081c",
                 "fe6233997cdd8d2406c66452f0b9a17031159dfdd6906b2f75d08eb1b00e9637"),
    ("k2n1", 1): (1,
                  "5e7b571a60a7c187d6a4cb8bbedbe4e69d4caa49b51d9ddf3320afd793f146bf",
                  "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae"),
    ("k2n1", 2): (2,
                  "d37e8acb01d34f7c8b1102021ae2a86e8d23cbbb6add4efa73dd6417db7c1423",
                  "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1"),
    ("k2n1", 3): (2,
                  "14f139691649fc94f95b42fcb89dfe96433c76ee9f3db341b0ebfd7335738a50",
                  "316e74ca312e0c2eed2ebaa6b558d2234fbb5dabc280c8804b1d23b3c20b9ac4"),
    ("k2n1", 4): (3,
                  "53b7ca9041ef30ede152771f126ec5522c4c672eb3d8a4a6e894d48f2797f5e6",
                  "109fddbf4a4d23d841a95a07d6594112e89a75d43a3a545365053e3bc20295d0"),
    ("k2n1", 5): (3,
                  "95693027377373d88822c6274281c46efaddfc13d47b1d781baaf6aa4c414d66",
                  "4d599702921614e83ce800859d6d4c1106efcc6508ed1106871d772c555793bc"),
    ("k2n1", 6): (4,
                  "ade6fca5776fcf0c63258f4aac9d848ffa02635b0faeb6841bb8eb1b850ca8f9",
                  "ae5f90f032c0939c3c56251960a5816df61c99ef09699a0ac6f619348dd7cf6b"),
    ("k2n1", 7): (4,
                  "b20578abb8d069b0f4b141d7a7dc52065d4359830c0b1ca7e25a74df4b3bcb92",
                  "60a0252373c06502e50524422591528b7f00f3934568c6990b5d8ce282652f44"),
    ("k2n1", 8): (5,
                  "0431e6a997e90b8e20bcbc2d1ee7d77d1cb817ed5b1264ff57ec03954ef5d09e",
                  "7d6b36126e30dce0a9b43414cef6648a0746e6146157f9e9bbc68d9c88b1ed8f"),
    ("k2n1", 9): (5,
                  "d3bfb37f4fe125d01f9b63cde0e37151c496a41a01d43ed2863f6b3677008c70",
                  "9f9c0275712c637614d15b9fd84b20a0ad26cd865183878b14c3f69e83a0d121"),
    ("k2n2", 1): (1,
                  "5e7b571a60a7c187d6a4cb8bbedbe4e69d4caa49b51d9ddf3320afd793f146bf",
                  "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae"),
    ("k2n2", 2): (2,
                  "d37e8acb01d34f7c8b1102021ae2a86e8d23cbbb6add4efa73dd6417db7c1423",
                  "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1"),
    ("k2n2", 3): (4,
                  "5859fc9908a9492620a0c3c1104e39e6f1ce56e85fccd0cbbdbaf9b997243d85",
                  "f8457640c4aefa16c983bba1ff22c74d2ff5a3b6ca5c176f26be4da6126ed53a"),
    ("k2n2", 4): (8,
                  "9e403b409fc450df48aebb4fcad350e06f692cdd9aa0e602baa75d998046cd15",
                  "67ce48666f1573836ae0987dddcf6190bb6c113523b19fd19cb9fc13779e123a"),
    ("k2n2", 5): (18,
                  "ffd95026e982fe587b5177d17505e0e5779400e29c503e3107824de61b19f280",
                  "ea59875fbb7952070fe22e6c4a88fc3ccc0fd79340997902a76f420823b8571d"),
    ("k2n2", 6): (44,
                  "df9b9423e01c635b749d74eec74a8242c272a3f7e0f7bdbe3c20827a85e555db",
                  "82d66306e3531440687e316fb8239e8901abc216d53c7b1537b057b0044ea291"),
    ("k2n2", 7): (117,
                  "83bb56a5f4bf01fe9eaec85d48e267bb9eca1401c85a6f924308e23e9851cf2c",
                  "be933243ed468e02a5c851af42b35d5d1eb942161ff6e30f95a5c71b2b38039d"),
    ("k2n2", 8): (351,
                  "9c95d425c35ae8748e6c73b84308d1a1ea036bded11929a3988bc8f709ef3056",
                  "de82e769531b4615fe819d3223251c12c9e41c68d174e3f11b7e21a9d65219cf"),
    ("k2n2", 9): (1230,
                  "a5f25cacd6470567ec953b172dd8d830e0c42aba2952ddb3c85b5976304eb394",
                  "e5a1580077cdf55cd38fe89792a7639e689c4d1753fe402d5176a9528aa17c13"),
    ("k2n3", 1): (1,
                  "5e7b571a60a7c187d6a4cb8bbedbe4e69d4caa49b51d9ddf3320afd793f146bf",
                  "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae"),
    ("k2n3", 2): (2,
                  "d37e8acb01d34f7c8b1102021ae2a86e8d23cbbb6add4efa73dd6417db7c1423",
                  "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1"),
    ("k2n3", 3): (4,
                  "5859fc9908a9492620a0c3c1104e39e6f1ce56e85fccd0cbbdbaf9b997243d85",
                  "f8457640c4aefa16c983bba1ff22c74d2ff5a3b6ca5c176f26be4da6126ed53a"),
    ("k2n3", 4): (11,
                  "0eaa87752cdd87443b7c673e9c8c59a027fc52d27f6e537f008a065da9d43b86",
                  "ba7f16d6c23f3c3033f851cd829f3942865f660c971ef018b1b052f4003f1510"),
    ("k2n3", 5): (27,
                  "95f2f9eea14d61a83f2b3027668b5412d4a0874f82f2544e3b093e74c5cf0ab8",
                  "4507aeb113118731098847f79711292556983bff9b9d8503849aed0dc37dee96"),
    ("k2n3", 6): (95,
                  "2bb61794bd782adfb93e1456ff30c236353c2aef8f0053a066b6def4e8baab48",
                  "8f820b5db5c274c8355676a32545e406c10dacc2baa7f891c22c157e6a04c39c"),
    ("k2n3", 7): (386,
                  "d5bf9a72421cdd48820ce30e22c0bd732af6db94f23eccccfb7a44d0c3cc8e62",
                  "6948e38f5a3b28ba702ef93714c8465c5a9979c5d4e7ed159f1c36c7cae3f9d8"),
    ("k2n3", 8): (2197,
                  "f28132fbd527885cba219ea5f459b2f007dca02576bfce9fbbe343ae2d17e0be",
                  "38b36daa4118a8c87f54d237f8bb3d26f4f27296ccc1307b004452c0cb955ea4"),
    ("ham3", 4): (3,
                  "1d4905fa88288cae8cff42d95ec748bab5c1abe6979dbf7d8033a5adfbfd8f9f",
                  "254f869a1b0007c3c0460578853e25567fabe0c096c48b446e9393ebe81625df"),
    ("ham4", 5): (6,
                  "e25a59e599c7163959e14317a86dd993d1503e7d617dbd1e4bb3892756e7f428",
                  "bb9c6f67092eba2e9868a65a8401d0bd55ccc3e2ddcc7d611228df4a71859259"),
    ("ham5", 6): (11,
                  "5551f7a243295a842d877f6818892294e6cc9833469a59b841fd5c5d5f1b4234",
                  "1123f6ff1a530287d40e113e11e49d3536268ff04ba80028d2044cab6674a572"),
    ("ham6", 7): (70,
                  "2d5679c2677fce4d9525e5f47576e724a76d9064835ab8ec0cf64a15c27c1881",
                  "9518763472b1a72693eb5fc5c60a0102c961eb1c1322bcec7f9f0693b2292217"),
    ("ham7", 8): (144,
                  "16e4837913018108ef44c153e2511c931f29a820988adacb58b734a615d20352",
                  "141c09b45e204b3d3ba69f300a2994cf4159571c895c60318e59a5fa83f49bbe"),
}


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_ordered_stream_is_pinned():
    for (name, order), (count, classes, ordered) in STREAMS.items():
        flt = STREAM_FILTERS[name]
        graphs = list(enumerate_orders(order, order, flt))
        forms = sorted(canonical_form(g).hex() for g in graphs)
        assert len(set(forms)) == len(forms), (name, order)  # one per class
        assert (len(forms), _sha256(forms)) == (count, classes), (name, order)
        stream = [encode_graph6(g) for g in graphs]
        assert _sha256(stream) == ordered, (name, order)
        par = [encode_graph6(g) for g in enumerate_parallel(order, flt, 2)]
        assert par == stream, (name, order)
