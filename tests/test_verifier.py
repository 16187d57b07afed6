import itertools
import json
import math

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from ramsey_k2n import verifier
from ramsey_k2n.constructions import star_witness
from ramsey_k2n.enumeration import K2nFreeFilter, enumerate_orders
from ramsey_k2n.graphs import (
    add_vertex,
    bits,
    complement,
    decode_graph6,
    encode_graph6,
    union_neighborhood_excl,
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
    compute_ramsey,
    verify_badness,
    verify_cited_lemmas,
    verify_hamiltonian_lemma,
    verify_lemma_3_1,
    verify_two_connected_lemma,
    verify_upper_bound,
)

from conftest import from_edges, to_nx


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
    assert k2n_free(g, 2)
    assert has_cycle_of_length(complement(g), 4) is None


def test_upper_bound_infeasible_guard():
    r = verify_upper_bound(2, 20, "single")
    assert r.outcome == "infeasible" and r.exit_code == 2


def test_upper_bound_workers_do_not_change_values():
    r1 = verify_upper_bound(2, 6, "pair", workers=1)
    r4 = verify_upper_bound(2, 6, "pair", workers=4)
    d1, d4 = r1.to_json_dict(), r4.to_json_dict()
    d1.pop("elapsed"), d4.pop("elapsed")
    assert d1 == d4


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
    for g in enumerate_orders(4, 7):
        for m in range(3, g.order - 1):
            for wit in all_cycles_of_length(g, m, math.inf)[0]:
                cycles += 1
                _, violation = _check_observations(g, wit.vertices)
                assert (violation is not None) \
                    == lemma_3_1_violated(g, wit.vertices), (g, wit)
                if violation is not None:
                    assert circumference(g) > m, (g, wit)
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
    assert _check_observations(g, cycle) == (pairs, detail)
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
    for g in enumerate_orders(7, 7):
        if connectivity(g) < 2 or has_cycle_of_length(g, 6) is not None:
            continue
        if all(2 * union_neighborhood_excl(g, u, v) >= 6
               for u in range(7) for v in range(u + 1, 7)
               if not g.adj[u] >> v & 1):
            count += 1
            assert is_hamiltonian(g) is not None
    assert count == 5


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
    assert k2n_free(witness, 2)
    gbar = complement(witness)
    assert has_cycle_of_length(gbar, 6) is None


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


def test_reports_serialize():
    r = verify_badness(7, 5)
    parsed = json.loads(json.dumps(r.to_json_dict(), sort_keys=True))
    assert parsed["outcome"] == "verified"
    assert parsed["claim"] == "thm1.4"


# ------------------------------------------- independent networkx oracle
# The hypothesis sets of thm1.5 and lemma2.6 recomputed by post-filtering
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
    graphs = (to_nx(g) for g in enumerate_orders(8, 8))
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


def test_harnesses_ask_two_connected_what_exact_connectivity_answers(monkeypatch):
    # every graph whose 2-connectivity lemma-props (order 7), thm1.5 (m=7)
    # and lemma2.6 (2,5) ask about gets the answer connectivity >= 2 gives
    asked = []
    sweep = verifier.two_connected

    def checked(g):
        answer = sweep(g)
        assert answer == (connectivity(g) >= 2), g
        asked.append(g)
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
    complement, by networkx."""
    hbar = nx.complement(to_nx(g))
    return find_k2n(g, n) is None and not any(_nx_has_cycle(hbar, ln)
                                              for ln in lengths)


def _check_filter_contract(flt, passes, key=None) -> None:
    """The listed masks whose child ``accepts`` takes are exactly the
    masks whose child ``passes``, in the listed order, for every passing
    parent of order <= 6."""
    for order in range(1, 7):
        for g in enumerate_orders(order, order, flt):
            kept = [s for s in flt.candidate_masks(g)
                    if flt.accepts(add_vertex(g, s).adj)]
            brute = sorted((s for s in range(1 << order) if passes(add_vertex(g, s))),
                           key=key)
            assert kept == brute, encode_graph6(g)


@pytest.mark.parametrize("lengths", [(3,), (4,), (5,), (4, 5)])
def test_ramsey_filter_keeps_exactly_the_passing_extensions(lengths):
    # K2nFreeFilter's masks come in increasing order of vertex lists
    for n in (1, 2, 3):
        _check_filter_contract(RamseyFilter(n, lengths),
                               lambda h: _brute_ramsey_ok(h, n, lengths),
                               key=lambda s: list(bits(s)))


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
        for g in enumerate_orders(order, order, flt):
            for s in flt.candidate_masks(g):
                rows = add_vertex(g, s).adj
                assert flt.accepts(rows) == (
                    flt.pair_bound_holds(rows, adjacent=False)
                    and not has_cycle_through_last(rows, (m,))), \
                    (encode_graph6(g), s)


def _ramsey_by_post_filter(n: int, lengths: tuple[int, ...], max_order: int):
    """(value or None, witness, count) computed order by order: every
    K_{2,n}-free class, kept when its complement has no target cycle."""
    count = 0
    witness = None
    for order in range(1, max_order + 1):
        found = [encode_graph6(g)
                 for g in enumerate_orders(order, order, K2nFreeFilter(n))
                 if all(has_cycle_of_length(complement(g), ln) is None
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


# R(K_{2,2}, C_m) = R(C_4, C_m) for m = 3..11 as in Radziszowski, "Small
# Ramsey Numbers", Electron. J. Combin. DS1; R(K_{2,2}, C_{m,m+1}) for
# m = 3..6; R(K_{2,3}, C_m) and R(K_{2,3}, C_{m,m+1}) for m = 3..9; and
# R(K_{2,4}, C_m) for m = 3..8.
GOODNESS_TABLE = {
    **{(2, "cycle", m): value
       for m, value in zip(range(3, 12), (7, 6, 7, 7, 8, 9, 10, 11, 12))},
    **{(2, "cycle_pair", m): value for m, value in zip(range(3, 7), (6, 6, 6, 7))},
    **{(3, "cycle", m): value
       for m, value in zip(range(3, 10), (9, 8, 9, 7, 9, 9, 10))},
    **{(3, "cycle_pair", m): value
       for m, value in zip(range(3, 10), (7, 7, 7, 7, 8, 9, 10))},
    **{(4, "cycle", m): value
       for m, value in zip(range(3, 9), (11, 9, 11, 8, 11, 9))},
}


def test_goodness_table():
    for (n, kind, m), value in GOODNESS_TABLE.items():
        r = compute_ramsey(n, kind, m)
        assert (r.outcome, r.extra["value"]) == ("verified", value), (n, kind, m)
        witness = decode_graph6(r.extra["witness_graph6"])
        assert witness.order == value - 1
        assert _brute_ramsey_ok(witness, n, (m,) if kind == "cycle" else (m, m + 1))


# Cells of the goodness map not yet in GOODNESS_TABLE, which each take
# over 10 s: opt in with ``pytest -m slow``.
@pytest.mark.slow
@pytest.mark.parametrize("n, m, max_order, value", [
    (2, 12, 13, 13),
    (3, 10, 12, 11),
])
def test_goodness_cells_outside_tier_1(n, m, max_order, value):
    r = compute_ramsey(n, "cycle", m, max_order)
    assert (r.outcome, r.extra["value"]) == ("verified", value)
    witness = decode_graph6(r.extra["witness_graph6"])
    assert witness.order == value - 1
    assert _brute_ramsey_ok(witness, n, (m,))


# thm1.5 at m=9, the largest m under HAMILTONIAN_LEMMA_MAX_ORDER (the gate
# checks m = 6..8); about 30 s with 2 workers.
@pytest.mark.slow
def test_hamiltonian_lemma_at_m9():
    r = verify_hamiltonian_lemma(9, workers=2)
    assert (r.outcome, r.counterexample) == ("verified", None)
    assert r.hypothesis_count == 6
    assert r.extra["relaxed_hypothesis_count"] == 108
