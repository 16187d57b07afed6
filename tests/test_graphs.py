import networkx as nx
import pytest

from ramsey_k2n.graphs import (
    FormatError,
    Graph,
    GraphError,
    bits,
    complement,
    complete_graph,
    cycle_graph,
    decode_graph6,
    disjoint_union,
    empty_graph,
    encode_graph6,
    join,
)

from conftest import (
    PETERSEN,
    add_edge,
    add_vertex,
    complete_multipartite,
    induced_subgraph,
    mask_of,
    path_graph,
    random_graph,
    to_nx,
)


def test_basic_constructors():
    assert empty_graph(5).edge_count() == 0
    assert complete_graph(5).edge_count() == 10
    assert cycle_graph(6).edge_count() == 6


def test_validation_rejects_bad_adjacency():
    with pytest.raises(GraphError):
        Graph(2, (1, 0))  # loop on vertex 0
    with pytest.raises(GraphError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(GraphError):
        Graph(2, (0, 0, 0))  # wrong length
    with pytest.raises(GraphError):
        Graph(2, (4, 0))  # bit beyond order
    # the same errors at the top of the order range
    full = complete_graph(64).adj
    with pytest.raises(GraphError, match="asymmetric edge 63-0"):
        Graph(64, (full[0] & ~(1 << 63),) + full[1:])
    with pytest.raises(GraphError, match="loop at vertex 62"):
        Graph(64, full[:62] + (full[62] | 1 << 62,) + full[63:])
    with pytest.raises(GraphError, match="vertex 63 has neighbors beyond"):
        Graph(64, full[:63] + (full[63] | 1 << 64,))
    with pytest.raises(GraphError, match="vertex 5 has neighbors beyond"):
        Graph(6, (0,) * 5 + (1 << 6,))


def test_graph_is_an_immutable_value():
    g = Graph(3, (4, 0, 1))
    with pytest.raises(AttributeError):
        g.order = 4
    with pytest.raises(AttributeError):
        del g.order
    with pytest.raises(AttributeError):
        g.adj = (0, 0, 0)
    assert (g.order, g.adj) == (3, (4, 0, 1))
    h = add_edge(empty_graph(3), 0, 2)
    assert h == g and hash(h) == hash(g) and h is not g
    assert len({g, h, complement(complement(g))}) == 1
    assert g != Graph(3, (0, 0, 0))
    # equal only to a Graph, never to a tuple of the same fields
    assert Graph(1, (0,)) != (1, (0,))
    assert repr(PETERSEN).startswith("Graph(order=10, adj=(")
    assert repr(Graph(2, (2, 1))) == "Graph(order=2, adj=(2, 1))"
    assert Graph(order=2, adj=(2, 1)) == Graph(2, (2, 1))


def test_order_bounds():
    with pytest.raises(GraphError):
        empty_graph(0)
    with pytest.raises(GraphError):
        empty_graph(65)
    assert empty_graph(64).order == 64
    # the builders leave the order range to Graph itself
    with pytest.raises(GraphError):
        add_vertex(empty_graph(64), 0)
    with pytest.raises(GraphError):
        disjoint_union(empty_graph(40), empty_graph(30))


def test_mask_helpers():
    assert list(bits(0b100101)) == [0, 2, 5]


def test_add_edge_and_vertex():
    g = empty_graph(3)
    g = add_edge(g, 0, 2)
    assert g.adj[0] == 4 and g.adj[2] == 1
    g2 = add_vertex(g, mask_of([0, 1]))
    assert g2.order == 4
    assert g2.adj[3] == mask_of([0, 1])
    with pytest.raises(GraphError):
        add_edge(g, 1, 1)
    # and the mask range too
    with pytest.raises(GraphError):
        add_vertex(g, 1 << g.order)
    with pytest.raises(GraphError):
        add_vertex(g, -1)


def test_complement_involution(rng):
    for _ in range(20):
        g = random_graph(rng.randint(1, 10), rng.random(), rng)
        assert complement(complement(g)) == g
        assert g.edge_count() + complement(g).edge_count() \
            == g.order * (g.order - 1) // 2


def test_union_and_join():
    g = disjoint_union(complete_graph(3), complete_graph(2))
    assert g.order == 5 and g.edge_count() == 4
    h = join(empty_graph(1), g)
    assert h.order == 6 and h.edge_count() == 4 + 5
    assert h.adj[0] == mask_of(range(1, 6))


def test_complete_multipartite():
    g = complete_multipartite([2, 3])
    assert g.order == 5 and g.edge_count() == 6
    assert complement(g) == disjoint_union(complete_graph(2), complete_graph(3))


def test_induced_subgraph_and_relabel():
    g = cycle_graph(5)
    sub = induced_subgraph(g, [0, 1, 2])
    assert sub == path_graph(3)


def test_neighborhood_helpers():
    # each row, read by bits, is the other part of K_{2,3}
    g = complete_multipartite([2, 3])
    assert [list(bits(row)) for row in g.adj] == [[2, 3, 4]] * 2 + [[0, 1]] * 3


def test_graph6_roundtrip_random(rng):
    for _ in range(50):
        g = random_graph(rng.randint(1, 20), rng.random(), rng)
        assert decode_graph6(encode_graph6(g)) == g


def test_graph6_matches_networkx(rng):
    for _ in range(30):
        g = random_graph(rng.randint(1, 15), rng.random(), rng)
        ours = encode_graph6(g)
        theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert ours == theirs


def test_graph6_long_form():
    g = empty_graph(64)
    s = encode_graph6(g)
    assert s.startswith("~")
    assert decode_graph6(s) == g


def test_graph6_header_and_errors():
    c5 = encode_graph6(cycle_graph(5))
    assert decode_graph6(">>graph6<<" + c5) == cycle_graph(5)
    with pytest.raises(FormatError):
        decode_graph6("")
    with pytest.raises(FormatError):
        decode_graph6("D" + chr(30))  # char below printable range
    with pytest.raises(FormatError):
        decode_graph6("D?")  # wrong body length (order 5 needs 2 chars)

