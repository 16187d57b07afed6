import itertools
import json
import math
import time

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from ramsey_k2n import invariants, verifier
from ramsey_k2n.constructions import star_witness
from ramsey_k2n.enumeration import K2nFreeFilter, unlabeled_graph_count
from ramsey_k2n.graphs import (
    Graph,
    bits,
    complement,
    complement_rows,
    decode_graph6,
    encode_graph6,
)
from ramsey_k2n.invariants import (
    all_cycles_of_length,
    circumference,
    connectivity,
    find_k2n,
    has_cycle_of_length,
    has_cycle_through_last,
    is_hamiltonian,
    k2n_free,
)
from ramsey_k2n.verifier import (
    HamiltonianHypothesisFilter,
    RamseyFilter,
    _check_observations,
    _report,
    compute_ramsey,
    verify_badness,
    verify_cited_lemmas,
    verify_hamiltonian_lemma,
    verify_lemma_3_1,
    verify_two_connected_lemma,
    verify_upper_bound,
)

from conftest import (
    add_vertex,
    brute_force_k2n_present,
    from_edges,
    from_nx,
    generated,
    plain_cycle_search,
    to_nx,
)


def test_report_defaults_give_each_report_its_own_extra():
    start = time.monotonic()
    a = _report("c", {}, start, outcome="verified")
    b = _report("c", {}, start, outcome="verified")
    assert (a.hypothesis_count, a.counterexample) == (0, None)
    assert a.elapsed >= 0.0
    assert a.notes == () and a.extra == {} and a.exit_code == 0
    assert a.extra is not b.extra
    a.extra["value"] = 1
    assert b.extra == {}
    assert _report("c", {}, start, extra={"x": 1}).extra == {"x": 1}
    assert _report("c", {}, start, outcome="counterexample").exit_code == 1


def test_upper_bound_pair_small():
    r = verify_upper_bound(2, 6, "pair")
    assert r.outcome == "verified"
    assert r.hypothesis_count == 117  # K_{2,2}-free classes on 7 vertices
    assert r.exit_code == 0


def test_upper_bound_outside_range_finds_counterexample():
    # m=4 < 2n+2: C_5 is K_{2,2}-free and self-complementary with no C_4/C_5..
    # the harness must find some counterexample rather than assert the claim
    r = verify_upper_bound(2, 4, "single")
    assert r.outcome == "counterexample"
    assert r.exit_code == 1
    g = decode_graph6(r.counterexample["graph6"])
    assert k2n_free(g.adj, 2)
    assert has_cycle_of_length(complement(g).adj, 4) is None


def test_upper_bound_infeasible_guard():
    r = verify_upper_bound(2, 20, "single")
    assert r.outcome == "infeasible" and r.exit_code == 2


def test_upper_bound_workers_do_not_change_values():
    r1 = verify_upper_bound(2, 6, "pair", workers=1)
    r4 = verify_upper_bound(2, 6, "pair", workers=4)
    d1, d4 = r1.to_json_dict(), r4.to_json_dict()
    d1.pop("elapsed"), d4.pop("elapsed")
    assert d1 == d4


def test_upper_bound_matches_a_search_of_every_graph():
    # verify_upper_bound searches an order-m parent's complement and lets
    # each child of a parent with a C_m there pass unsearched; the oracle
    # walks order m+1 alone and searches every complement, with no
    # bipartite rule.  The grid has counterexample cells, verified cells,
    # and parents whose complements have no C_m, whose children
    # RamseyFilter.accepts decides with one ends dict per parent, as at
    # thm1.6 (3, 7); workers=2 splits the walk at m = 6 and 7.
    counterexamples = uncovered = 0
    for n, m in itertools.product((2, 3), range(3, 8)):
        uncovered += sum(
            not plain_cycle_search(complement_rows(g.adj), (m,))
            for g in generated(m, m, K2nFreeFilter(n)))
        for variant in ("single", "pair"):
            lengths = (m,) if variant == "single" else (m, m + 1)
            count, least = 0, None
            for g in generated(m + 1, m + 1, K2nFreeFilter(n)):
                count += 1
                if not plain_cycle_search(complement_rows(g.adj), lengths):
                    g6 = encode_graph6(g)
                    least = g6 if least is None else min(least, g6)
            if variant == "pair":
                notes = (f"stated range m >= 2n+2 = {2 * n + 2}: "
                         f"{'inside' if m >= 2 * n + 2 else 'outside'}",
                         f"proof range m >= 2n+1 = {2 * n + 1}: "
                         f"{'inside' if m >= 2 * n + 1 else 'outside'}")
            else:
                notes = (f"stated range m >= 3n+4 = {3 * n + 4}: "
                         f"{'inside' if m >= 3 * n + 4 else 'outside'}",)
            wanted = " or ".join(f"C_{ln}" for ln in lengths)
            cex = None if least is None else {
                "graph6": least,
                "detail": f"K_2,{n}-free graph whose complement has no {wanted}"}
            counterexamples += cex is not None
            for workers in (1, 2):
                r = verify_upper_bound(n, m, variant, workers)
                assert (r.outcome, r.hypothesis_count, r.counterexample,
                        r.notes) == ("counterexample" if cex else "verified",
                                     count, cex, notes), (n, m, variant, workers)
    assert counterexamples == 12 and uncovered == 219


def test_upper_bound_searches_children_only_below_uncovered_parents(monkeypatch):
    # every one of the 351 K_{2,2}-free classes of order 8 has a C_8 in its
    # complement, so no class of order 9 is searched: one search per
    # parent, and only the parents' complements are built.  At thm1.6
    # (3, 7), the 26 children of parents without a C_7 in the complement
    # go through RamseyFilter.accepts with one ends dict per parent, and
    # 3 of them are settled by a sibling's cycle; searching each would
    # make 406 cycles_through calls
    searched = []
    built = []
    paths = 0
    search = verifier.all_cycles_of_length
    rows_of = verifier.complement_rows
    through = invariants.cycles_through

    def counted(rows, length, cap):
        searched.append(len(rows))
        return search(rows, length, cap)

    def counted_rows(adj):
        built.append(len(adj))
        return rows_of(adj)

    def counted_paths(*args):
        nonlocal paths
        paths += 1
        return through(*args)

    monkeypatch.setattr(verifier, "all_cycles_of_length", counted)
    monkeypatch.setattr(verifier, "complement_rows", counted_rows)
    monkeypatch.setattr(invariants, "cycles_through", counted_paths)
    r = verify_upper_bound(2, 8, "single")
    assert (r.outcome, r.hypothesis_count) == ("verified", 1230)
    assert searched == built == [8] * 351
    assert paths == 351
    searched.clear()
    built.clear()
    paths = 0
    r = verify_upper_bound(3, 7, "single")
    assert (r.outcome, r.hypothesis_count) == ("counterexample", 2197)
    assert r.counterexample["graph6"] == "GQhTQg"
    assert searched == [7] * 386
    assert sorted(built) == [7] * 386 + [8] * 26
    assert paths == 403


def test_badness():
    r = verify_badness(7, 5)
    assert r.outcome == "verified"
    assert r.extra["cover"]["construction"] == "lemma41"
    g = decode_graph6(r.extra["witness_graph6"])
    assert g.order == 13
    r = verify_badness(14, 6)
    assert r.outcome == "verified"
    assert r.extra["cover"]["construction"] == "lemma42"
    r = verify_badness(6, 6)
    assert r.outcome == "infeasible" and r.exit_code == 2


def test_lemma_3_1_small():
    r = verify_lemma_3_1(6)
    assert r.outcome == "verified"
    assert r.hypothesis_count > 0
    r7 = verify_lemma_3_1(7)
    assert r7.outcome == "verified"
    assert r7.hypothesis_count > r.hypothesis_count


SHIFT_PATTERNS = ((1, 1), (-1, -1), (1, 2), (-1, -2))


def lemma_3_1_violated(g, cycle) -> bool:
    """Literal search for a vertex x off the cycle adjacent to two
    consecutive cycle vertices, or an ordered pair x, y off it, two cycle
    positions i != j adjacent to x and a shift pattern taking them to two
    distinct cycle vertices adjacent to y."""
    l = len(cycle)
    off = [v for v in range(g.order) if v not in cycle]

    def adjacent(u, v):
        return g.adj[u] >> v & 1

    if any(adjacent(x, cycle[i]) and adjacent(x, cycle[(i + 1) % l])
           for x in off for i in range(l)):
        return True
    for x, y in itertools.permutations(off, 2):
        for i, j in itertools.permutations(range(l), 2):
            for d1, d2 in SHIFT_PATTERNS:
                a, b = cycle[(i + d1) % l], cycle[(j + d2) % l]
                if (a != b and adjacent(x, cycle[i]) and adjacent(x, cycle[j])
                        and adjacent(y, a) and adjacent(y, b)):
                    return True
    return False


def test_lemma_3_1_violations_are_exactly_the_literal_ones():
    # every cycle of length <= order-2 of every class of order 4..7
    # (25,743 cycles, 23,600 of them violating): a violation is reported
    # iff the literal search finds one, and each implies a longer cycle
    cycles = 0
    first = set()
    for g in generated(4, 7):
        for m in range(3, g.order - 1):
            for cycle in all_cycles_of_length(g.adj, m, math.inf)[0]:
                cycles += 1
                _, violation = _check_observations(g.adj, cycle)
                assert (violation is not None) \
                    == lemma_3_1_violated(g, cycle), (g, cycle)
                if violation is not None:
                    assert circumference(g.adj) > m, (g, cycle)
                    first.add(violation.split(":")[0])
    assert cycles == 25_743
    # obs3 is never the first violation here: the hand-built cases cover it
    assert first == {"obs1", "obs2"}


@pytest.mark.parametrize("cycle_order, x_edges, y_edges, detail", [
    (4, (0, 1), (2,), "obs1: vertex 4 adjacent to consecutive cycle vertices 0,1"),
    (6, (0, 2), (1, 3), "obs2: x=6 adjacent to cycle positions 0,2; "
                        "y=7 adjacent to offsets +1,+1 of them"),
    (6, (0, 2), (5, 1), "obs2: x=6 adjacent to cycle positions 0,2; "
                        "y=7 adjacent to offsets -1,-1 of them"),
    (6, (0, 2), (1, 4), "obs3: x=6 adjacent to cycle positions 0,2; "
                        "y=7 adjacent to offsets +1,+2 of them"),
    (7, (0, 3), (1, 6), "obs3: x=7 adjacent to cycle positions 0,3; "
                        "y=8 adjacent to offsets -1,-2 of them"),
])
def test_lemma_3_1_first_violation(cycle_order, x_edges, y_edges, detail):
    # a cycle 0..cycle_order-1 and two vertices x, y off it, each adjacent
    # to the given cycle vertices: the named observation and shift pattern
    # is the first violation found
    x, y = cycle_order, cycle_order + 1
    g = from_edges(cycle_order + 2,
                   [(v, (v + 1) % cycle_order) for v in range(cycle_order)]
                   + [(x, v) for v in x_edges] + [(y, v) for v in y_edges])
    cycle = tuple(range(cycle_order))
    pairs = 0 if detail.startswith("obs1") else 1  # obs1 is checked first
    assert _check_observations(g.adj, cycle) == (pairs, detail)
    assert lemma_3_1_violated(g, cycle)


def test_lemma_3_1_guard():
    r = verify_lemma_3_1(10)
    assert r.outcome == "infeasible"


def test_hamiltonian_lemma_vacuous_at_6():
    # exhaustively true: no 2-connected C_6-free graph on 7 vertices has
    # every distinct-pair neighborhood union >= 3; reported distinctly
    r = verify_hamiltonian_lemma(6)
    assert r.outcome == "verified-vacuous"
    assert r.hypothesis_count == 0
    assert r.exit_code == 0
    assert r.extra["relaxed_hypothesis_count"] == 5


def test_hamiltonian_lemma_relaxed_reading_is_sound():
    # independent spot check of the relaxed (nonadjacent pairs) count at m=6
    count = 0
    for g in generated(7, 7):
        if connectivity(g.adj) < 2 or has_cycle_of_length(g.adj, 6) is not None:
            continue
        h = to_nx(g)
        if all(2 * len((set(h[u]) | set(h[v])) - {u, v}) >= 6
               for u, v in nx.non_edges(h)):
            count += 1
            assert is_hamiltonian(g.adj) is not None
    assert count == 5


def test_hamiltonian_lemma_search_count(monkeypatch):
    # at m=7 a C_7 found through one child's new vertex settles each later
    # sibling adjacent to both ends of its path, so the filter's searches,
    # with is_hamiltonian's on the 5 hypothesis graphs, are 1,157 where
    # searching every child takes 3,853.  The certificates are read before
    # the pair bound, so of the 4,643 children asked only 1,636 pay for it
    calls = 0
    bounds = []
    search = invariants.cycles_through
    flt = HamiltonianHypothesisFilter
    bound = flt.pair_bound_holds

    def counted(*args):
        nonlocal calls
        calls += 1
        return search(*args)

    def counted_bound(self, adj, adjacent, among=-1):
        bounds.append(adjacent)
        return bound(self, adj, adjacent, among)

    monkeypatch.setattr(invariants, "cycles_through", counted)
    monkeypatch.setattr(flt, "pair_bound_holds", counted_bound)
    r = verify_hamiltonian_lemma(7)
    assert (r.outcome, r.hypothesis_count) == ("verified", 5)
    assert calls == 1157
    assert bounds.count(False) == 1636 and bounds.count(True) == 16


def test_two_connected_lemma_vacuous_at_2_6():
    r = verify_two_connected_lemma(2, 6)
    assert r.outcome == "verified-vacuous"
    assert r.hypothesis_count == 0


def test_two_connected_lemma_out_of_range_reported():
    r = verify_two_connected_lemma(2, 5)
    assert "outside" in r.notes[0]
    # oracle-confirmed in test_two_connected_lemma_matches_networkx_oracle
    assert r.outcome == "verified"
    assert r.hypothesis_count == 2


def test_cited_lemmas_small():
    r = verify_cited_lemmas(6)
    assert r.outcome == "verified"
    counts = r.extra["per_lemma_hypothesis_counts"]
    assert all(v > 0 for v in counts.values())


def test_compute_ramsey_pair():
    r = compute_ramsey(2, "cycle_pair", 6)
    assert r.outcome == "verified"
    assert r.extra["value"] == 7
    witness = decode_graph6(r.extra["witness_graph6"])
    assert witness.order == 6
    assert k2n_free(witness.adj, 2)
    gbar = complement(witness)
    assert has_cycle_of_length(gbar.adj, 6) is None


def test_compute_ramsey_cross_check():
    # verified upper + lower bounds at (2, pair 6) force the exact value
    up = verify_upper_bound(2, 6, "pair")
    low = star_witness(6)
    exact = compute_ramsey(2, "cycle_pair", 6)
    assert up.outcome == "verified" and not low.failed
    assert exact.extra["value"] == 7


def test_compute_ramsey_cannot_bracket():
    r = compute_ramsey(2, "cycle_pair", 6, max_order=5)
    assert r.outcome == "infeasible" and r.exit_code == 2


def test_compute_ramsey_stops_at_the_largest_graph_order(monkeypatch):
    # a tree that ends below order 64 keeps its value at any max_order
    r = compute_ramsey(2, "cycle", 4, max_order=100)
    assert (r.outcome, r.extra) == ("verified",
                                    {"value": 6, "witness_graph6": "DEk"})
    # the matchings reach every order, so the walk stops at the ceiling,
    # here lowered to 6; the real one, order 64, is a slow golden CLI case
    monkeypatch.setattr(verifier, "MAX_ORDER", 6)
    r = compute_ramsey(1, "cycle", 66, max_order=70)
    assert (r.outcome, r.notes) == (
        "infeasible", ("no refutation up to order 6; cannot bracket the value",))
    assert r.extra == {"witness_graph6": "E???"} and r.hypothesis_count == 15


def test_reports_serialize():
    r = verify_badness(7, 5)
    parsed = json.loads(json.dumps(r.to_json_dict(), sort_keys=True))
    assert parsed["outcome"] == "verified"
    assert parsed["claim"] == "thm1.4"


# ------------------------------------------- independent networkx oracle
# The hypothesis sets of thm1.5, lemma2.6 and lemma-props recomputed by
# post-filtering
# every isomorphism class: networkx's atlas up to 7 vertices, the
# (Burnside-checked) unfiltered enumeration at 8.  Cycles and connectivity
# come from networkx; no hereditary pruning is involved.


def _atlas(order: int) -> list[nx.Graph]:
    return [h for h in graph_atlas_g() if h.number_of_nodes() == order]


def _nx_has_cycle(h: nx.Graph, length: int) -> bool:
    return any(len(c) == length for c in nx.simple_cycles(h, length_bound=length))


def _oracle_hamiltonian_counts(m: int, graphs) -> tuple[int, int, bool]:
    """(strict count, relaxed count, whether some strict graph is not
    Hamiltonian) for thm1.5 on m+1 vertices."""
    strict = relaxed = 0
    violated = False
    for h in graphs:
        # adjacency of each pair u, v with 2 * |N(u) | N(v) - {u, v}| < m
        misses = [h.has_edge(u, v)
                  for u, v in itertools.combinations(h.nodes, 2)
                  if 2 * len((set(h[u]) | set(h[v])) - {u, v}) < m]
        if not all(misses) or not nx.is_biconnected(h) or _nx_has_cycle(h, m):
            continue
        relaxed += 1
        if not misses:
            strict += 1
            violated |= not _nx_has_cycle(h, m + 1)
    return strict, relaxed, violated


def _check_hamiltonian_lemma_against_oracle(m: int, graphs, expected) -> None:
    strict, relaxed, violated = _oracle_hamiltonian_counts(m, graphs)
    assert (strict, relaxed) == expected
    assert not violated
    r = verify_hamiltonian_lemma(m)
    assert r.hypothesis_count == strict
    assert r.extra["relaxed_hypothesis_count"] == relaxed
    assert r.outcome == ("verified" if strict else "verified-vacuous")


def test_hamiltonian_lemma_matches_networkx_oracle_small():
    expected = {3: (1, 1), 4: (1, 1), 5: (2, 4), 6: (0, 5)}
    for m, counts in expected.items():
        _check_hamiltonian_lemma_against_oracle(m, _atlas(m + 1), counts)


def test_hamiltonian_lemma_matches_networkx_oracle_at_7():
    graphs = (to_nx(g) for g in generated(8, 8))
    _check_hamiltonian_lemma_against_oracle(7, graphs, (5, 16))


def test_two_connected_lemma_matches_networkx_oracle():
    # (n, m) -> (hypothesis count, whether some graph violates)
    expected = {(2, 4): (2, True), (2, 5): (2, False), (2, 6): (0, False),
                (3, 5): (19, True), (3, 6): (0, False)}
    for (n, m), want in expected.items():
        count = 0
        violated = False
        for h in _atlas(m + 1):
            if any(len(set(h[u]) & set(h[v])) >= n
                   for u, v in itertools.combinations(h.nodes, 2)):
                continue
            hbar = nx.complement(h)
            if _nx_has_cycle(hbar, m):
                continue
            count += 1
            violated |= not nx.is_biconnected(hbar)
        assert (count, violated) == want
        r = verify_two_connected_lemma(n, m)
        assert r.hypothesis_count == count
        assert r.outcome == ("counterexample" if violated
                             else "verified" if count else "verified-vacuous")


def test_cited_lemma_counts_match_networkx_oracle():
    # lemma-props' four hypothesis counts over the atlas at orders 3..7,
    # from networkx degrees, neighbourhoods, biconnectivity, cliques of
    # the complement and the longest of its simple cycles
    counts = dict.fromkeys(("degree_sum_cycle", "min_degree_hamiltonian",
                            "nash_williams", "neighborhood_union_cycle"), 0)
    for order in range(3, 8):
        for h in _atlas(order):
            delta = min(d for _, d in h.degree())
            counts["min_degree_hamiltonian"] += 2 * delta >= order
            if not nx.is_biconnected(h):
                continue
            counts["degree_sum_cycle"] += 1
            alpha = max(len(c) for c in nx.find_cliques(nx.complement(h)))
            counts["nash_williams"] += 3 * delta >= order + 2 and delta >= alpha
            ku = min(len((set(h[u]) | set(h[v])) - {u, v})
                     for u, v in itertools.combinations(h.nodes, 2))
            circ = max(len(c) for c in nx.simple_cycles(h))
            counts["neighborhood_union_cycle"] += circ >= order - ku
    assert counts == {"degree_sum_cycle": 538, "min_degree_hamiltonian": 55,
                      "nash_williams": 171, "neighborhood_union_cycle": 536}
    r = verify_cited_lemmas(7)
    assert (r.outcome, r.counterexample) == ("verified", None)
    assert r.extra["per_lemma_hypothesis_counts"] == counts
    assert r.hypothesis_count == sum(counts.values())


def test_harnesses_ask_two_connected_what_exact_connectivity_answers(monkeypatch):
    # every graph whose 2-connectivity lemma-props (order 7), thm1.5 (m=7)
    # and lemma2.6 (2,5) ask about gets the answer connectivity >= 2 gives
    asked = []
    sweep = verifier.two_connected

    def checked(adj):
        answer = sweep(adj)
        Graph(len(adj), adj)  # the rows asked about are a valid graph's
        assert answer == (connectivity(adj) >= 2), adj
        asked.append(adj)
        return answer

    monkeypatch.setattr(verifier, "two_connected", checked)
    runs = [(lambda: verify_cited_lemmas(7), 1249),
            (lambda: verify_hamiltonian_lemma(7), 144),
            (lambda: verify_two_connected_lemma(2, 5), 2)]
    for run, calls in runs:
        asked.clear()
        assert run().outcome == "verified"
        assert len(asked) == calls


# ----------------------------------------------- the Ramsey value's filter


def _brute_ramsey_ok(g, n: int, lengths: tuple[int, ...]) -> bool:
    """K_{2,n}-free, by embedding search, with no target cycle in the
    complement: a Hamiltonian one by ``_hamiltonian_by_subset_dp``, a
    shorter one by networkx, whose listing of every cycle up to the
    order of a nearly complete complement takes tens of seconds."""
    hbar = nx.complement(to_nx(g))
    rows = complement_rows(g.adj)
    return find_k2n(g.adj, n) is None and not any(
        _hamiltonian_by_subset_dp(rows) if ln == g.order
        else _nx_has_cycle(hbar, ln) for ln in lengths)


def _check_filter_contract(flt, passes, key=None, floor=lambda order: 0) -> None:
    """The listed masks whose child ``accepts`` takes are exactly the
    masks of at least ``floor(k)`` vertices whose child, of order k,
    ``passes``, in the listed order, for every passing parent of order
    <= 6.  A smaller mask whose child passes gives it a vertex of degree
    at least the floor, above the new vertex's, so generation never
    accepts that child.  The children of one parent share one ``ends``
    dict, as in generation, asked in the listed order and again in
    reverse."""
    for order in range(1, 7):
        least = floor(order + 1)
        for g in generated(order, order, flt):
            listed = list(flt.candidate_masks(g.adj))
            brute = []
            for s in range(1 << order):
                child = add_vertex(g, s)
                if not passes(child):
                    continue
                if s.bit_count() >= least:
                    brute.append(s)
                else:
                    assert max(row.bit_count() for row in child.adj) >= least, \
                        (encode_graph6(g), s)
            brute.sort(key=key)
            for masks, want in ((listed, brute), (listed[::-1], brute[::-1])):
                ends = {}
                kept = [s for s in masks
                        if flt.accepts(add_vertex(g, s).adj, ends)]
                assert kept == want, encode_graph6(g)


def _hamiltonian_by_subset_dp(rows: tuple[int, ...]) -> bool:
    """Whether the graph with rows ``rows`` (at least 3 vertices) has a
    Hamiltonian cycle: ends[mask] holds the last vertices of the paths
    from vertex 0 through exactly the vertices of mask."""
    order = len(rows)
    full = (1 << order) - 1
    ends = [0] * (1 << order)
    ends[1] = 1
    for mask in range(1, full + 1, 2):  # masks holding vertex 0
        if ends[mask]:
            for w in range(1, order):
                if not mask >> w & 1 and rows[w] & ends[mask]:
                    ends[mask | 1 << w] |= 1 << w
    return bool(ends[full] & rows[0])


def test_degree_floor_lemma():
    # a K_{2,n}-free graph on N >= 3n-1 vertices whose complement is not
    # Hamiltonian has a vertex of degree >= N-n-1 (Chvatal-Erdos on the
    # complement, whose independence number is at most n+1); so every
    # class below that floor has a Hamiltonian complement, by a subset DP
    # that shares no code with invariants
    below = {}
    for n in (1, 2, 3):
        for order in range(max(3, 3 * n - 1), 10):
            floor = order - n - 1
            below[n, order] = 0
            for g in generated(order, order, K2nFreeFilter(n)):
                if max(row.bit_count() for row in g.adj) < floor:
                    below[n, order] += 1
                    assert _hamiltonian_by_subset_dp(complement_rows(g.adj)), \
                        (n, encode_graph6(g))
    assert (below[2, 9], below[3, 8], below[3, 9]) == (1165, 384, 8137)


@pytest.mark.parametrize("n, lengths, order, least", [
    (1, (3,), 3, 1), (1, (3,), 2, 0), (1, (4,), 3, 0),
    (2, (4,), 4, 0),  # below 3n-1 = 5
    (2, (5,), 5, 2), (2, (5, 6), 5, 2), (2, (5, 6), 6, 3), (2, (5, 6), 7, 0),
    (3, (7,), 7, 0), (3, (8,), 8, 4), (3, (8,), 9, 0),
    (3, (7, 8), 7, 0), (3, (7, 8), 8, 4), (3, (10, 11), 11, 7),
    (4, (10,), 10, 0), (4, (11,), 11, 6), (5, (13, 14), 14, 8),
])
def test_ramsey_filter_least_degree(n, lengths, order, least):
    # a child of order N gets K2nFreeFilter's masks of at least N-n-1
    # vertices at a target length N >= max(3, 3n-1), where the
    # degree-floor lemma applies, and all of them elsewhere; the empty
    # parent has masks of every size up to the floor, so a wrong floor
    # changes the list
    adj = (0,) * (order - 1)
    assert RamseyFilter(n, lengths).candidate_masks(adj) == \
        K2nFreeFilter(n).candidate_masks(adj, least)


@pytest.mark.parametrize("lengths", [(3,), (4,), (5,), (4, 5)])
def test_ramsey_filter_keeps_exactly_the_passing_extensions(lengths):
    # K2nFreeFilter's masks come in increasing order of vertex lists, cut
    # at the floor of test_ramsey_filter_least_degree
    for n in (1, 2, 3):
        _check_filter_contract(
            RamseyFilter(n, lengths), lambda h: _brute_ramsey_ok(h, n, lengths),
            key=lambda s: list(bits(s)),
            floor=lambda order: (order - n - 1 if order in lengths
                                 and order >= max(3, 3 * n - 1) else 0))


def _brute_hamiltonian_ok(g, m: int) -> bool:
    """The pair-union bound with slack m+1-order on nonadjacent pairs, by
    set arithmetic, and no C_m, by networkx."""
    h = to_nx(g)
    slack = m + 1 - g.order
    return all(2 * (len((set(h[u]) | set(h[v])) - {u, v}) + slack) >= m
               for u, v in itertools.combinations(h.nodes, 2)
               if not h.has_edge(u, v)) and not _nx_has_cycle(h, m)


@pytest.mark.parametrize("m", range(3, 8))
def test_hamiltonian_filter_keeps_exactly_the_passing_extensions(m):
    _check_filter_contract(HamiltonianHypothesisFilter(m),
                           lambda h: _brute_hamiltonian_ok(h, m))


@pytest.mark.parametrize("m", [6, 7, 8])
def test_hamiltonian_filter_rechecks_only_pairs_outside_the_new_neighbourhood(m):
    # accepts rechecks only the nonadjacent pairs with no end in the new
    # vertex's neighbourhood; on every listed child of every passing parent
    # of order <= 7 (the last level of thm1.5 at m=7 and m=8) it must agree
    # with the full recheck of every nonadjacent pair
    flt = HamiltonianHypothesisFilter(m)
    for order in range(1, 8):
        for g in generated(order, order, flt):
            ends = {}  # shared by the children of g, as in generation
            for s in flt.candidate_masks(g.adj):
                rows = add_vertex(g, s).adj
                assert flt.accepts(rows, ends) == (
                    flt.pair_bound_holds(rows, adjacent=False)
                    and not has_cycle_through_last(rows, (m,), {})), \
                    (encode_graph6(g), s)


@pytest.mark.parametrize("n", [2, 3])
def test_complement_row_search_agrees_with_graph_search(n):
    # verify_upper_bound searches each complement's rows without building a
    # Graph; on the order-9 trees of thm1.3 at (2, 8) and (3, 8), the first
    # also thm1.6's at (2, 8), the search it asks, all_cycles_of_length on
    # the rows, must give the answer of a plain search without the
    # bipartite rule and of has_cycle_of_length on the complement's Graph,
    # for every graph and every length
    answers = set()
    for g in generated(9, 9, K2nFreeFilter(n)):
        rows = complement_rows(g.adj)
        gbar = complement(g)
        assert rows == gbar.adj
        for ln in range(3, 10):
            found = plain_cycle_search(rows, (ln,))
            assert found == bool(all_cycles_of_length(rows, ln, 1)[0]) \
                == (has_cycle_of_length(gbar.adj, ln) is not None), \
                (encode_graph6(g), ln)
            answers.add(found)
        assert plain_cycle_search(rows, (8, 9)) == any(
            has_cycle_of_length(gbar.adj, ln) for ln in (8, 9))
    assert answers == {False, True}


def _ramsey_by_post_filter(n: int, lengths: tuple[int, ...], max_order: int):
    """(value or None, witness, count) computed order by order: every
    K_{2,n}-free class, kept when its complement has no target cycle."""
    count = 0
    witness = None
    for order in range(1, max_order + 1):
        found = [encode_graph6(g)
                 for g in generated(order, order, K2nFreeFilter(n))
                 if all(has_cycle_of_length(complement(g).adj, ln) is None
                        for ln in lengths)]
        if not found:
            return order, witness, count
        count += len(found)
        witness = min(found)
    return None, witness, count


@pytest.mark.parametrize("n, kind, m, max_order", [
    *((1, "cycle", m, 12) for m in (3, 4, 5)),
    *((2, "cycle", m, 12) for m in range(3, 9)),
    (2, "cycle_pair", 6, 12), (3, "cycle", 4, 12), (3, "cycle", 6, 12),
    (3, "cycle", 8, 9),  # R = 9: the degree floor applies at order 8
    (2, "cycle", 4, 5),  # R = 6, so order 5 brackets nothing
])
def test_compute_ramsey_matches_post_filtered_enumeration(n, kind, m, max_order):
    lengths = (m,) if kind == "cycle" else (m, m + 1)
    value, witness, count = _ramsey_by_post_filter(n, lengths, max_order)
    r = compute_ramsey(n, kind, m, max_order)
    assert r.outcome == ("verified" if value else "infeasible")
    assert r.extra.get("value") == value
    assert r.extra["witness_graph6"] == witness
    assert r.hypothesis_count == count


# R(K_{2,2}, C_m) = R(C_4, C_m) for m = 3..12 as in Radziszowski, "Small
# Ramsey Numbers", Electron. J. Combin. DS1; R(K_{2,2}, C_{m,m+1}) for
# m = 3..10; R(K_{2,3}, C_m) and R(K_{2,3}, C_{m,m+1}) for m = 3..10;
# R(K_{2,4}, C_m) for m = 3..9; R(K_{2,4}, C_{m,m+1}) for m = 5..9; and
# R(K_{2,5}, C_{8,9}).
GOODNESS_TABLE = {
    **{(2, "cycle", m): value
       for m, value in zip(range(3, 13), (7, 6, 7, 7, 8, 9, 10, 11, 12, 13))},
    **{(2, "cycle_pair", m): value
       for m, value in zip(range(3, 11), (6, 6, 6, 7, 8, 9, 10, 11))},
    **{(3, "cycle", m): value
       for m, value in zip(range(3, 11), (9, 8, 9, 7, 9, 9, 10, 11))},
    **{(3, "cycle_pair", m): value
       for m, value in zip(range(3, 11), (7, 7, 7, 7, 8, 9, 10, 11))},
    **{(4, "cycle", m): value
       for m, value in zip(range(3, 10), (11, 9, 11, 8, 11, 9, 11))},
    **{(4, "cycle_pair", m): value
       for m, value in zip(range(5, 10), (8, 8, 9, 9, 10))},
    (5, "cycle_pair", 8): 10,
}


def test_goodness_table():
    for (n, kind, m), value in GOODNESS_TABLE.items():
        # R(K_{2,2}, C_12) = 13 needs a walk past the default order
        r = compute_ramsey(n, kind, m, max(value, verifier.RAMSEY_MAX_ORDER))
        assert (r.outcome, r.extra["value"]) == ("verified", value), (n, kind, m)
        witness = decode_graph6(r.extra["witness_graph6"])
        assert witness.order == value - 1
        assert _brute_ramsey_ok(witness, n, (m,) if kind == "cycle" else (m, m + 1))


def test_goodness_upper_bounds_hold_on_the_graph_atlas():
    # a frozen value R means every graph on R vertices has a K_{2,n} or a
    # target cycle in its complement; for every cell with R <= 7 this is
    # checked on each graph of networkx's atlas of that order, with no
    # code shared with canon or the enumeration
    cells = 0
    for (n, kind, m), value in GOODNESS_TABLE.items():
        if value > 7:
            continue
        cells += 1
        lengths = (m,) if kind == "cycle" else (m, m + 1)
        assert not any(_brute_ramsey_ok(from_nx(h), n, lengths)
                       for h in _atlas(value)), (n, kind, m)
    assert cells == 13


def test_goodness_upper_bounds_of_8_hold_on_every_graph_of_order_8():
    # the cells with R = 8, past the atlas: each of the unfiltered tree's
    # classes of order 8, whose number Burnside's lemma gives apart from
    # the generator, has a K_{2,n} by literal embedding search or a target
    # cycle in its complement by a search without the bipartite rule
    cells = [(n, (m,) if kind == "cycle" else (m, m + 1))
             for (n, kind, m), value in GOODNESS_TABLE.items() if value == 8]
    assert len(cells) == 7
    classes = 0
    for g in generated(8, 8):
        classes += 1
        rows = complement_rows(g.adj)
        for n, lengths in cells:
            assert (brute_force_k2n_present(g, n)
                    or plain_cycle_search(rows, lengths)), \
                (encode_graph6(g), n, lengths)
    assert classes == unlabeled_graph_count(8) == 12346


# Cells of the goodness map not yet in GOODNESS_TABLE, which each take
# about 10 s or more: opt in with ``pytest -m slow``.
@pytest.mark.slow
@pytest.mark.parametrize("n, kind, m, max_order, value", [
    (3, "cycle", 11, 12, 12),
    (5, "cycle_pair", 9, 12, 11),
])
def test_goodness_cells_outside_tier_1(n, kind, m, max_order, value):
    r = compute_ramsey(n, kind, m, max_order)
    assert (r.outcome, r.extra["value"]) == ("verified", value)
    witness = decode_graph6(r.extra["witness_graph6"])
    assert witness.order == value - 1
    assert _brute_ramsey_ok(witness, n, (m,) if kind == "cycle" else (m, m + 1))


# thm1.5 at m=9, the largest m under HAMILTONIAN_LEMMA_MAX_ORDER (the gate
# checks m = 6..8); about 10 s with 2 workers.
@pytest.mark.slow
def test_hamiltonian_lemma_at_m9():
    r = verify_hamiltonian_lemma(9, workers=2)
    assert (r.outcome, r.counterexample) == ("verified", None)
    assert r.hypothesis_count == 6
    assert r.extra["relaxed_hypothesis_count"] == 108
