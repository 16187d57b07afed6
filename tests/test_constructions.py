import json
import signal
import time

import pytest

from ramsey_k2n import constructions
from ramsey_k2n.constructions import (
    ParameterError,
    badness_parameter_cover,
    burr_witness,
    lemma41_witness,
    lemma42_witness,
    star_witness,
)
from ramsey_k2n.graphs import (
    complement,
    decode_graph6,
    empty_graph,
)
from ramsey_k2n.invariants import has_cycle_of_length, k2n_free

from conftest import (
    canonical_form,
    complete_multipartite,
    induced_subgraph,
    plain_cycle_search,
)


def test_star_witness_basic():
    r = star_witness(6)
    assert not r.failed
    assert r.claimed["order"] == 6
    assert r.measured["complement_circumference"] == 5
    assert r.checks["k2n_free_n2"]
    r = star_witness(3)
    assert not r.failed and r.measured["complement_circumference"] == 0
    r = star_witness(10)
    assert not r.failed and r.measured["complement_circumference"] == 9
    with pytest.raises(ParameterError):
        star_witness(2)


def test_burr_witness_k2n_matches_star_complement():
    # chi=2, sigma=2 pattern: the red side is K_{m-1} + K_1
    r = burr_witness(6, "k2n", 3)
    s = star_witness(6)
    assert canonical_form(r.complement_graph) \
        == canonical_form(s.complement_graph)
    assert not r.failed


def test_burr_witness_odd_cycle():
    # C_7 and C_11 (chi=3, sigma=1) against a connected graph on n+2=10 vertices:
    # red is two K_9 blocks, total order 18, witnessing R > 18 = 2n+2
    for size in (7, 11):
        start = time.monotonic()
        r = burr_witness(10, "cycle", size)
        assert not r.failed
        assert r.claimed["order"] == 18
        assert r.checks["pattern_absent"]  # blue is K_{9,9}, no odd cycle
        # read off the colouring: an exact search for C_11 runs over a minute
        assert time.monotonic() - start < 5


@pytest.mark.parametrize("builder, args, order", [
    (star_witness, (64,), 64),
    (lemma41_witness, (20, 2, 3), 64),
    (lemma42_witness, (10, 4, 0), 55),
    (burr_witness, (33, "cycle", 3), 64),
])
def test_builders_report_within_a_second_near_max_order(builder, args, order):
    # The cycle searches on these clique unions rely on the reachability
    # pruning: without it star_witness(12) takes seconds and order 64 is
    # out of reach.  The alarm turns a runaway search into a failure.
    def expire(signum, frame):
        raise TimeoutError(f"{builder.__name__}{args} still running")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        start = time.monotonic()
        r = builder(*args)
        elapsed = time.monotonic() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert r.graph.order == order and not r.failed
    assert elapsed < 1


def test_burr_witness_small_even_cycle():
    r = burr_witness(4, "cycle", 6)
    assert not r.failed
    assert r.claimed["order"] == 5
    assert r.checks["red_components_below_g_order"]


def test_burr_cycle_check_equals_search():
    # every cycle case of total order <= 12: the check, where the bipartite
    # rule answers without a search, gives the answer of a search
    cases = 0
    for g_order in range(1, 14):
        for size in range(3, 15):
            try:
                r = burr_witness(g_order, "cycle", size)
            except ParameterError:  # g_order below sigma, or total order 0
                continue
            if r.graph.order > 12:
                continue
            cases += 1
            assert r.checks["pattern_absent"] \
                == (not plain_cycle_search(r.graph.adj, (size,))), (g_order, size)
    assert cases == 72


def test_burr_cycle_check_searches_a_nonbipartite_graph(monkeypatch):
    # an edgeless red side makes the blue side complete: the search finds C_5
    monkeypatch.setattr(constructions, "_clique_union",
                        lambda sizes: empty_graph(sum(sizes)))
    r = burr_witness(6, "cycle", 5)
    assert not r.checks["pattern_absent"] and r.failed


def test_burr_witness_errors():
    with pytest.raises(ParameterError):
        burr_witness(1, "k2n", 2)  # g_order < sigma
    with pytest.raises(ParameterError):
        burr_witness(40, "cycle", 7)  # order 78 > 64
    with pytest.raises(ParameterError, match="g_order 1 gives total order 0"):
        burr_witness(1, "cycle", 3)  # sigma = 1: K_0


def test_burr_witness_chromatic_data():
    # chi and sigma of C_6, C_7 and K_{2,5}
    for kind, size, chi, sigma in [("cycle", 6, 2, 3), ("cycle", 7, 3, 1),
                                   ("k2n", 5, 2, 2)]:
        params = burr_witness(5, kind, size).params
        assert (params["chi"], params["sigma"]) == (chi, sigma)
    with pytest.raises(ParameterError, match="requires n >= 2"):
        burr_witness(5, "k2n", 1)
    with pytest.raises(ParameterError, match="cycle length must be >= 3"):
        burr_witness(5, "cycle", 2)
    with pytest.raises(ParameterError, match="unknown pattern kind 'cycle_pair'"):
        burr_witness(5, "cycle_pair", 6)


def test_lemma41_flagship_parameters():
    r = lemma41_witness(5, 1, 2)
    assert not r.failed
    assert r.claimed["order"] == 13
    assert r.measured["complement_circumference"] == 7
    assert r.measured["max_common_neighborhood"] == 6
    assert r.params["n"] == 7
    assert r.checks["max_common_equals_claim"]
    assert k2n_free(r.graph, 7)
    assert has_cycle_of_length(r.complement_graph, 10) is None


def test_lemma41_second_parameters():
    r = lemma41_witness(4, 2, 3)
    assert not r.failed
    assert r.claimed["order"] == 16
    assert r.measured["complement_circumference"] == 6
    assert r.params["n"] == 11


def test_lemma41_nonapex_structure():
    # removing the apex from G leaves a complete multipartite graph with
    # p parts of size m+1 and one part of size m+t-p
    m, p, t = 5, 1, 2
    r = lemma41_witness(m, p, t)
    apex = next(v for v in range(r.complement_graph.order)
                if r.complement_graph.adj[v].bit_count()
                == r.complement_graph.order - 1)
    rest = [v for v in range(r.graph.order) if v != apex]
    non_apex = induced_subgraph(r.graph, rest)
    expected = complete_multipartite([m + t - p] + [m + 1] * p)
    assert canonical_form(non_apex) == canonical_form(expected)


def test_lemma41_parameter_errors():
    with pytest.raises(ParameterError):
        lemma41_witness(5, 1, 1)  # t >= p+1 violated
    with pytest.raises(ParameterError):
        lemma41_witness(5, 0, 2)  # p >= 1 violated
    with pytest.raises(ParameterError):
        lemma41_witness(5, 1, 5)  # t < m+p-1 violated
    with pytest.raises(ParameterError):
        lemma41_witness(20, 2, 4)  # order 65 > 64


def test_star_parameter_errors():
    with pytest.raises(ParameterError, match="got m=65$"):
        star_witness(65)  # order 65 > 64


def test_lemma42_flagship_parameters():
    r = lemma42_witness(6, 2, 0)
    assert not r.failed
    assert r.claimed["order"] == 21
    assert r.measured["complement_circumference"] == 11
    assert r.params["n"] == 14
    assert k2n_free(r.graph, 14)
    assert r.checks["max_common_at_most_n_minus_1"]


def test_lemma42_larger_parameters():
    r = lemma42_witness(6, 3, 2)
    assert r.claimed["order"] == 26
    assert r.claimed["complement_circumference"] == 11
    # order 26 exceeds the exact-circumference cutoff
    assert "complement_circumference" in r.skipped
    assert not r.failed
    assert r.checks["k2n_free"]


def test_lemma42_rejects_small_m():
    with pytest.raises(ParameterError, match="m >= 6"):
        lemma42_witness(5, 2, 0)
    with pytest.raises(ParameterError):
        lemma42_witness(6, 1, 0)
    with pytest.raises(ParameterError):
        lemma42_witness(6, 2, 3)


def test_witness_complement_consistency():
    for r in (star_witness(7), lemma41_witness(5, 1, 3), lemma42_witness(6, 2, 1)):
        assert complement(r.graph) == r.complement_graph


def test_badness_parameter_cover():
    assert badness_parameter_cover(7, 5) == {
        "construction": "lemma41", "n": 7, "m": 5, "p": 1, "t": 2}
    assert badness_parameter_cover(14, 6) == {
        "construction": "lemma42", "n": 14, "m": 6, "q": 2, "t": 0}
    assert badness_parameter_cover(6, 6)["construction"] == "unknown"
    assert badness_parameter_cover(7, 6)["construction"] == "unknown"
    assert badness_parameter_cover(3, 6)["construction"] == "uncovered"
    with pytest.raises(ParameterError):
        badness_parameter_cover(0, 5)


def _cover_by_search(n, m):
    """badness_parameter_cover as a search over q and p, one at a time."""
    if n in (m, m + 1):
        return {"construction": "unknown", "n": n, "m": m,
                "reason": "goodness open for n in {m, m+1}"}
    if n >= m + 2:
        if m >= 6:
            for q in range(2, n // (m + 1) + 2):
                for t in (0, 1, 2):
                    if q * (m + 1) - t == n:
                        return {"construction": "lemma42", "n": n, "m": m,
                                "q": q, "t": t}
        p = 1
        while p * m + p + 1 <= n:
            t = n - p * m
            if p + 1 <= t < m + p - 1:
                return {"construction": "lemma41", "n": n, "m": m,
                        "p": p, "t": t}
            p += 1
    return {"construction": "uncovered", "n": n, "m": m,
            "reason": "no construction for these parameters"}


def test_cover_solves_parameters_as_the_search_does():
    for n in range(1, 401):
        for m in range(1, 26):
            assert badness_parameter_cover(n, m) == _cover_by_search(n, m), (n, m)


def test_cover_is_complete_above_m_plus_1():
    # every n in [m+2, 40] must be covered for m in {6, 7, 8}, and the
    # solved parameters must build a verifying witness of order n+m+1
    for m in (6, 7, 8):
        for n in range(m + 2, 41):
            cover = badness_parameter_cover(n, m)
            assert cover["construction"] in ("lemma41", "lemma42"), (n, m)
            if cover["construction"] == "lemma41":
                r = lemma41_witness(m, cover["p"], cover["t"])
            else:
                r = lemma42_witness(m, cover["q"], cover["t"])
            assert r.params["n"] == n
            assert r.claimed["order"] == n + m + 1
            assert not r.failed


def test_report_json_serialization():
    r = lemma41_witness(5, 1, 2)
    d = r.to_json_dict()
    payload = json.dumps(d, sort_keys=True)
    back = json.loads(payload)
    assert back["failed"] is False
    assert decode_graph6(back["graph6"]) == r.graph
    assert decode_graph6(back["complement_graph6"]) == r.complement_graph


def _construct_grid():
    """Every builder call of the construct grid that takes its parameters."""
    calls = [(star_witness, m) for m in range(3, 12)]
    calls += [(burr_witness, g, "cycle", s) for g in range(1, 12)
              for s in range(3, 13)]
    calls += [(burr_witness, g, "k2n", s) for g in range(1, 12)
              for s in range(1, 8)]
    calls += [(lemma41_witness, m, p, t) for m in range(2, 9)
              for p in range(4) for t in range(10)]
    calls += [(lemma42_witness, m, q, t) for m in range(2, 9)
              for q in range(1, 4) for t in range(4)]
    reports = []
    for builder, *args in calls:
        try:
            reports.append(builder(*args))
        except ParameterError:
            continue
    return reports


@pytest.mark.parametrize("broken", [False, True])
def test_report_step_skips_and_fails_by_one_rule(monkeypatch, broken):
    if broken:  # edgeless cliques: most claims and checks then fail
        monkeypatch.setattr(constructions, "_clique_union",
                            lambda sizes: empty_graph(sum(sizes)))
    reports = _construct_grid()
    assert len(reports) == 240
    # 42 skip the circumference above the cutoff, 138 skip some key
    assert sum("complement_circumference" in r.skipped for r in reports) == 42
    assert sum(bool(r.skipped) for r in reports) == 138
    for r in reports:
        claimed_none = {key for key, want in r.claimed.items() if want is None}
        assert claimed_none <= set(r.skipped), r.params
        assert set(r.skipped) - claimed_none <= {"complement_circumference"}
        assert list(r.skipped) == sorted(r.skipped)
        mismatch = any(r.measured[key] != want for key, want in r.claimed.items()
                       if key not in r.skipped)
        assert r.failed == (mismatch or not all(r.checks.values())), r.params
    assert any(r.failed for r in reports) == broken
