import importlib.util
import json
from pathlib import Path

import pytest

_path = Path(__file__).parents[1] / "tools" / "bench_gate.py"
_spec = importlib.util.spec_from_file_location("bench_gate", _path)
bench_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gate)


def test_spread_gives_quartiles_and_iqr_share():
    # statistics.quantiles' default (exclusive) method on 5 runs puts q1
    # halfway between the first two and q3 halfway between the last two
    assert bench_gate.spread([5.0, 4.0, 6.0, 4.5, 5.5]) == {
        "median_wall_s": 5.0, "q1_wall_s": 4.25, "q3_wall_s": 5.75,
        "iqr_share": 0.3}


@pytest.mark.parametrize("change, verdict", [
    # parent median 5.00 s, IQR 4.85-5.15 s
    ([4.0, 4.1, 4.2, 4.3, 4.4], "change 4.20 s (IQR 7%)"),  # 0.8 s apart
    ([4.7, 4.8, 4.9, 5.0, 5.1], "change 4.90 s (IQR 6%) unresolved"),
    # 0.4 s apart: outside the parent's IQR, inside the change's own
    ([3.0, 3.5, 4.6, 5.0, 6.0], "change 4.60 s (IQR 49%) unresolved"),
])
def test_summary_marks_differences_inside_either_iqr(change, verdict):
    row = {"same_output": True,
           "parent": bench_gate.spread([4.8, 4.9, 5.0, 5.1, 5.2]),
           "change": bench_gate.spread(change)}
    assert bench_gate.summary("thm1.5 m=8", row, ["parent", "change"]) == (
        f"thm1.5 m=8: parent 5.00 s (IQR 6%), {verdict}; same output: True")


def test_src_lines_counts_the_package_modules_only(tmp_path):
    # the .py files of ramsey_k2n count, a last line without a newline
    # does not (as wc -l), and other files and subpackages are left out
    pkg = tmp_path / "ramsey_k2n"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n\n")
    (pkg / "b.py").write_text("z = 3\nw = 4")
    (pkg / "notes.txt").write_text("one\ntwo\n")
    (pkg / "sub" / "c.py").write_text("v = 5\n")
    (tmp_path / "d.py").write_text("u = 6\n")
    assert bench_gate.src_lines(str(tmp_path)) == 4


def test_a_run_without_a_report_is_recorded_not_fatal(tmp_path, monkeypatch):
    # a tree whose CLI raises prints no JSON: its runs are kept with null
    # counts and digest and the last stderr line, next to a working tree's
    # runs, and the gate run's output counts as not the same
    trees = {}
    for label, body in (
            ("ok", 'print(\'{"outcome": "verified", "elapsed": 0.1}\')\n'),
            ("broken", 'raise RuntimeError("boom")\n')):
        pkg = tmp_path / label / "ramsey_k2n"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "__main__.py").write_text(body)
        trees[label] = str(tmp_path / label)
    monkeypatch.setattr(bench_gate, "GATE_RUNS", {"one": ("verify",)})
    out = tmp_path / "bench.json"
    argv = [f"--src={label}={path}" for label, path in trees.items()]
    assert bench_gate.main([*argv, "--runs", "3", "--out", str(out)]) == 1
    row = json.loads(out.read_text())["gate_runs"]["one"]
    assert row["same_output"] is False
    assert [run["counts"]["outcome"] for run in row["ok"]["runs"]] == \
        ["verified"] * 3
    for run in row["broken"]["runs"]:
        assert run["exit_code"] == 1
        assert run["counts"] is None and run["output_sha256"] is None
        assert run["stderr_tail"] == "RuntimeError: boom"
