"""Compact exact graph type on at most 64 vertices.

Graphs are immutable values: each vertex's neighborhood is one machine-word
bitmask, so set algebra on neighborhoods is branch-free integer arithmetic.
All mutators return new graphs, and ``Graph`` alone validates each one.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

MAX_ORDER = 64


class GraphError(ValueError):
    """Invalid graph parameter or operation."""


class FormatError(GraphError):
    """Malformed graph6 input."""


class ParameterError(GraphError):
    """A builder was called with parameters outside its valid range."""


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of a vertex-set mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph; ``adj[v]`` is the neighbor bitmask of v.

    An immutable value: its fields cannot be set or deleted, two graphs are
    equal when their class, order and rows are, and a pickled graph is
    validated again when it is loaded.
    """

    __slots__ = ("order", "adj")

    def __init__(self, order: int, adj: tuple[int, ...]):
        if not 1 <= order <= MAX_ORDER:
            raise GraphError(f"order {order} outside 1..{MAX_ORDER}")
        if len(adj) != order:
            raise GraphError("adjacency length does not match order")
        full = (1 << order) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise GraphError(f"vertex {v} has neighbors beyond the order")
            if row >> v & 1:
                raise GraphError(f"loop at vertex {v}")
        for v, row in enumerate(adj):
            bit = 1 << v
            while row:
                low = row & -row
                u = low.bit_length() - 1
                if not adj[u] & bit:
                    raise GraphError(f"asymmetric edge {v}-{u}")
                row ^= low
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "adj", adj)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.order, self.adj) == (other.order, other.adj)

    def __hash__(self):
        return hash((self.order, self.adj))

    def __repr__(self):
        return f"Graph(order={self.order!r}, adj={self.adj!r})"

    def __reduce__(self):
        return Graph, (self.order, self.adj)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


def empty_graph(order: int) -> Graph:
    return Graph(order, (0,) * order)


def complete_graph(order: int) -> Graph:
    if not 1 <= order <= MAX_ORDER:
        raise GraphError(f"order {order} outside 1..{MAX_ORDER}")
    full = (1 << order) - 1
    return Graph(order, tuple(full ^ (1 << v) for v in range(order)))


def cycle_graph(order: int) -> Graph:
    if order < 3:
        raise GraphError("cycle needs order >= 3")
    return Graph(order, tuple((1 << (v - 1) % order) | (1 << (v + 1) % order)
                              for v in range(order)))


def complement_rows(adj: Sequence[int]) -> tuple[int, ...]:
    """The complement's rows of the graph with rows ``adj``; a row never
    holds its own vertex's bit."""
    full = (1 << len(adj)) - 1
    return tuple(full ^ (1 << v) ^ row for v, row in enumerate(adj))


def complement(g: Graph) -> Graph:
    return Graph(g.order, complement_rows(g.adj))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    shift = g1.order
    return Graph(shift + g2.order, g1.adj + tuple(row << shift for row in g2.adj))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all edges between the two vertex sets."""
    g = disjoint_union(g1, g2)
    m1 = (1 << g1.order) - 1
    m2 = ((1 << g.order) - 1) ^ m1
    rows = [row | (m2 if v < g1.order else m1) for v, row in enumerate(g.adj)]
    return Graph(g.order, tuple(rows))


# graph6 text format (bit-exact per the public format description)

def encode_graph6(g: Graph) -> str:
    n = g.order
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    out = []
    acc = 0
    nbits = 0
    for col in range(1, n):
        for row in range(col):
            acc = (acc << 1) | (g.adj[row] >> col & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(acc + 63))
    return head + "".join(out)


def decode_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise FormatError("empty graph6 string")
    if s[0] == "~":
        if len(s) < 4 or s[1] == "~":
            raise FormatError("unsupported long-form graph6 header")
        n = 0
        for c in s[1:4]:
            k = ord(c) - 63
            if not 0 <= k <= 63:
                raise FormatError(f"bad header byte {c!r}")
            n = (n << 6) | k
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if not 1 <= n <= MAX_ORDER:
        raise FormatError(f"order {n} outside 1..{MAX_ORDER}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise FormatError(f"expected {need} body bytes, got {len(body)}")
    bitlist = []
    for c in body:
        k = ord(c) - 63
        if not 0 <= k <= 63:
            raise FormatError(f"bad body byte {c!r}")
        bitlist.extend((k >> s6) & 1 for s6 in range(5, -1, -1))
    pad = bitlist[n * (n - 1) // 2:]
    if any(pad):
        raise FormatError("nonzero padding bits")
    rows = [0] * n
    i = 0
    for col in range(1, n):
        for row in range(col):
            if bitlist[i]:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            i += 1
    return Graph(n, tuple(rows))
