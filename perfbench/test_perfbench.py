"""Self-tests of the benchmark; they run the small ``smoke`` workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_smoke_run_is_correct_and_reports_every_end_to_end_metric():
    result, bench = run.run("smoke", seed=1, seconds=1, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_SAMPLES
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(bench.verdicts) == 1


def test_verdict_bytes_do_not_depend_on_the_seed():
    _, first = run.run("smoke", seed=1, seconds=0, trace=False)
    _, second = run.run("smoke", seed=2, seconds=0, trace=False)
    assert first.verdicts == second.verdicts


def test_corrupted_reference_counts_every_run_as_failed(monkeypatch):
    good = run.WORKLOADS["smoke"]
    bad = dataclasses.replace(good, expect={**good.expect, "hypothesis_count": 118})
    monkeypatch.setitem(run.WORKLOADS, "smoke", bad)
    result, bench = run.run("smoke", seed=1, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= run.MIN_SAMPLES
    assert "hypothesis_count" in bench.samples[0]["problem"]


def test_traced_calls_repeat_and_self_times_fit_in_wall_time():
    result, bench = run.run("smoke", seed=3, seconds=0, trace=True)
    assert result["correct"], [t["problem"] for t in bench.traced]
    assert len(bench.traced) >= 2
    first, second = bench.traced[:2]
    assert run.call_counts(first) == run.call_counts(second)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for traced in bench.traced:
        assert traced["missing"] == []
        total_self = sum(s["self_s"] for s in traced["spans"].values())
        assert 0 < total_self <= traced["wall_s"]
    metrics = result["metrics"]
    assert metrics["canon.labeling_calls"]["value"] > 0
    assert metrics["invariants.connectivity_calls"]["value"] == 0
    # smoke runs one search to the end: _children is called once on the
    # root and on every accepted child except the leaves the stream yields
    leaves = first["spans"]["enumeration.stream"]["items"]
    assert leaves == run.WORKLOADS["smoke"].expect["hypothesis_count"]
    assert metrics["enumeration.nodes"]["value"] == (
        metrics["enumeration.children_accepted"]["value"] - leaves + 1)


def test_missing_call_site_reports_zero_calls(monkeypatch):
    monkeypatch.setattr(tracer, "CALL_SITES", tracer.CALL_SITES + [
        ("enumeration", "_no_such_function", "enumeration.gone", "call"),
        ("verifier", "NoSuchFilter.accepts", "verifier.gone", "filter"),
    ])
    result = tracer.traced_main(list(run.WORKLOADS["smoke"].argv))
    assert result["exit_code"] == 0
    assert result["missing"] == ["enumeration._no_such_function",
                                 "verifier.NoSuchFilter.accepts"]
    assert result["spans"]["enumeration.gone"]["calls"] == 0
    assert result["spans"]["canon.labeling"]["calls"] > 0
    # the wrappers are gone again once the run ends
    from ramsey_k2n import enumeration
    assert enumeration.canonical_labeling.__module__ == "ramsey_k2n.canon"


def test_ramsey_witness_check_against_brute_force():
    from ramsey_k2n.graphs import complete_graph, cycle_graph, decode_graph6, encode_graph6

    assert run.ramsey_witness_problem("FEnbo", 8, 3, 4) is None
    # K_7 contains K_{2,3}; the empty graph on 7 vertices has a C_4 complement
    assert "K_2,3" in run.ramsey_witness_problem(encode_graph6(complete_graph(7)), 8, 3, 4)
    assert "C_4" in run.ramsey_witness_problem("F????", 8, 3, 4)
    assert "order" in run.ramsey_witness_problem("FEnbo", 9, 3, 4)
    for g in (decode_graph6("FEnbo"), cycle_graph(9), complete_graph(5)):
        adj = run._graph6_adjacency(encode_graph6(g))
        assert [sum(1 << u for u in row) for row in adj] == list(g.adj)


@pytest.mark.parametrize("workload", ["smoke", "c4free-o9"])
def test_fails_without_a_result_outside_a_checkout(tmp_path, workload):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
