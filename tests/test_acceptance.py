"""Acceptance gate: the eleven primary criteria, one pass/fail line each.

Criteria 6 and 8 include a non-vacuity clause, asked where the hypothesis
set can be non-empty.  Exhaustive search shows the sets are empty at thm1.5
m=6 and m=8 and at lemma2.6 (n=2, m=6), so there the criteria ask for an
explicit ``verified-vacuous``; non-vacuity is asked at thm1.5 m=7 and at
lemma2.6 just below its stated range.  For lemma2.6 on m+1 vertices the
hypothesis set is exactly the set of graphs showing R(K_{2,n}, C_m) > m+1,
and R(C_4, C_m) = m+1 for m >= 6 (Radziszowski, "Small Ramsey Numbers",
EJC Dynamic Survey DS1).  Every expected count is confirmed by the networkx
oracle in test_verifier.py.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import ramsey_k2n
from ramsey_k2n.enumeration import (
    K2nFreeFilter,
    unlabeled_graph_count,
)
from ramsey_k2n.graphs import complement, decode_graph6
from ramsey_k2n.invariants import connectivity, has_cycle_of_length, k2n_free
from ramsey_k2n.verifier import verify_cited_lemmas, verify_lemma_3_1

from conftest import brute_force_k2n_present, generated

CLI = [sys.executable, "-m", "ramsey_k2n"]
# the CLI runs the package these tests import, installed or not
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(ramsey_k2n.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}

#: one line per criterion, echoed in the terminal summary by conftest
RESULTS: list[str] = []


def run_cli(*argv) -> tuple[int, dict, float]:
    start = time.monotonic()
    proc = subprocess.run(CLI + list(argv) + ["--output", "json"],
                          capture_output=True, text=True, env=CLI_ENV)
    elapsed = time.monotonic() - start
    payload = json.loads(proc.stdout) if proc.stdout.strip() else {}
    return proc.returncode, payload, elapsed


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} — {detail}"
    RESULTS.append(line)
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_01_lemma41_construction_fidelity():
    code, payload, elapsed = run_cli("construct", "lemma41",
                                     "--m", "5", "--p", "1", "--t", "2")
    ok = (code == 0 and payload["order"] == 13
          and payload["measured"]["complement_circumference"] == 7
          and payload["measured"]["max_common_neighborhood"] == 6
          and elapsed < 1.0)
    report(1, ok, f"lemma41(5,1,2): circ=7, common=6, {elapsed:.2f}s < 1s")


def test_criterion_02_lemma42_construction_fidelity():
    code, payload, elapsed = run_cli("construct", "lemma42",
                                     "--m", "6", "--q", "2", "--t", "0")
    ok = (code == 0 and payload["order"] == 21
          and payload["measured"]["complement_circumference"] == 11
          and payload["checks"]["k2n_free"]
          and elapsed < 5.0)
    report(2, ok, f"lemma42(6,2,0): 21 vertices, circ=11<12, "
                  f"K_2,14-free, {elapsed:.2f}s < 5s")


def test_criterion_03_pair_theorem_at_m6():
    code, payload, elapsed = run_cli("verify", "thm1.3",
                                     "--n", "2", "--m", "6")
    rcode, rpayload, _ = run_cli("ramsey", "--n", "2", "--pair", "6")
    ok = (code == 0 and payload["outcome"] == "verified"
          and payload["hypothesis_count"] == 117
          and rcode == 0 and rpayload["extra"]["value"] == 7
          and elapsed < 1.0)
    report(3, ok, f"thm1.3(2,6): verified over 117 classes, "
                  f"R = 7, {elapsed:.2f}s < 1s")


def test_criterion_04_pair_theorem_at_m8():
    code, payload, elapsed = run_cli("verify", "thm1.3",
                                     "--n", "2", "--m", "8")
    ok = (code == 0 and payload["outcome"] == "verified"
          and payload["hypothesis_count"] > 0
          and elapsed < 60.0)
    report(4, ok, f"thm1.3(2,8): verified over "
                  f"{payload.get('hypothesis_count')} classes, "
                  f"{elapsed:.1f}s < 60s")


def test_criterion_05_single_cycle_theorem_at_m10():
    code, payload, elapsed = run_cli("verify", "thm1.6",
                                     "--n", "2", "--m", "10")
    ok = (code == 0 and payload["outcome"] == "verified"
          and payload["hypothesis_count"] > 0
          and elapsed < 600.0)
    report(5, ok, f"thm1.6(2,10): verified over "
                  f"{payload.get('hypothesis_count')} C_4-free classes "
                  f"on 11 vertices, {elapsed:.1f}s < 600s")


def test_criterion_06_hamiltonian_lemma_nonvacuous():
    runs = {m: run_cli("verify", "thm1.5", "--m", str(m)) for m in (6, 7, 8)}
    no_violations = all(code == 0 and payload.get("counterexample") is None
                        and elapsed < 60.0
                        for code, payload, elapsed in runs.values())
    # m=7 is the only m in 6..8 whose hypothesis set is non-empty
    nonvacuous = (runs[7][1].get("outcome") == "verified"
                  and runs[7][1].get("hypothesis_count") == 5)
    vacuous_at_6 = runs[6][1].get("outcome") == "verified-vacuous"
    detail = "thm1.5 (each run: exit 0, no counterexample, < 60s): " + "; ".join(
        f"m={m} exit {code} {payload.get('outcome')} "
        f"hypothesis_count={payload.get('hypothesis_count')} {elapsed:.1f}s"
        for m, (code, payload, elapsed) in runs.items())
    report(6, no_violations and nonvacuous and vacuous_at_6, detail)


def test_criterion_07_longest_cycle_observations():
    r = verify_lemma_3_1(7)
    ok = (r.outcome == "verified" and r.counterexample is None
          and r.hypothesis_count > 0 and r.elapsed < 120.0)
    report(7, ok, f"lemma3.1 order<=7: {r.hypothesis_count} "
                  f"(graph,cycle,pair) triples, zero violations, "
                  f"{r.elapsed:.1f}s < 120s")


def test_criterion_08_two_connected_lemma_nonvacuous():
    code, payload, elapsed = run_cli("verify", "lemma2.6",
                                     "--n", "2", "--m", "6")
    in_range = (code == 0 and payload.get("counterexample") is None
                and payload.get("outcome") == "verified-vacuous"
                and elapsed < 10.0)
    # below the stated range m >= 2n+2 the outcome is reported, not
    # asserted by the harness; these runs show the check is not vacuous
    code5, payload5, _ = run_cli("verify", "lemma2.6", "--n", "2", "--m", "5")
    nonvacuous = (code5 == 0 and payload5.get("outcome") == "verified"
                  and payload5.get("hypothesis_count") == 2)
    code4, payload4, _ = run_cli("verify", "lemma2.6", "--n", "2", "--m", "4")
    witness = (payload4.get("counterexample") or {}).get("graph6")
    can_fail = (code4 == 1 and payload4.get("outcome") == "counterexample"
                and payload4.get("hypothesis_count") == 2
                and witness is not None)
    if can_fail:
        g = decode_graph6(witness)
        gbar = complement(g)
        can_fail = (g.order == 5 and not brute_force_k2n_present(g, 2)
                    and has_cycle_of_length(gbar.adj, 4) is None
                    and connectivity(gbar.adj) < 2)
    report(8, in_range and nonvacuous and can_fail,
           f"lemma2.6(2,6): exit {code}, {payload.get('outcome')}, "
           f"hypothesis_count={payload.get('hypothesis_count')}, "
           f"{elapsed:.2f}s < 10s (the set is empty since R(C_4, C_6) = 7); "
           f"(2,5): {payload5.get('outcome')} over "
           f"{payload5.get('hypothesis_count')} graphs; (2,4): exit {code4}, "
           f"{payload4.get('outcome')}, witness {witness} "
           f"{'re-checked' if can_fail else 'not confirmed'}")


def test_criterion_09_cited_lemma_suite():
    r = verify_cited_lemmas(8)
    counts = r.extra["per_lemma_hypothesis_counts"]
    ok = (r.outcome == "verified" and r.counterexample is None
          and all(v > 0 for v in counts.values()) and r.elapsed < 120.0)
    report(9, ok, f"four cited cycle lemmas, order<=8: zero violations, "
                  f"counts {counts}, {r.elapsed:.1f}s < 120s")


def test_criterion_10_enumeration_counts():
    expected = [1, 2, 4, 11, 34, 156, 1044, 12346, 274668]
    got = []
    for order in range(1, 10):
        assert unlabeled_graph_count(order) == expected[order - 1]
        got.append(sum(1 for _ in generated(order, order)))
    ok = got == expected
    report(10, ok, f"class counts orders 1-9: {got} == Burnside oracle")


def test_criterion_11_freeness_oracle_equivalence():
    checked = 0
    for order in range(1, 8):
        for g in generated(order, order):
            for n in (1, 2, 3):
                assert k2n_free(g.adj, n) == (not brute_force_k2n_present(g, n))
                checked += 1
    # also cross-check the filtered generators against post-filtering
    for n in (2, 3):
        a = sum(1 for _ in generated(6, 6, K2nFreeFilter(n)))
        b = sum(1 for g in generated(6, 6) if k2n_free(g.adj, n))
        assert a == b
    report(11, True, f"k2n_free == embedding oracle on {checked} "
                     f"(graph, n) cases, orders <= 7")
