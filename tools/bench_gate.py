"""Wall times of the acceptance-gate CLI runs, for one or more source trees.

    python3 tools/bench_gate.py --src parent=../parent/src --src change=src \
        --runs 3 --out BENCH.json

Each ``--src LABEL=PATH`` names a directory that holds the ``ramsey_k2n``
package.  Every gate run (``GATE_RUNS``) is spawned as
``python -m ramsey_k2n ... --output json --workers 1`` with that directory
on ``PYTHONPATH``, ``--runs`` times per tree.  The trees alternate within
each round, and the order of the trees rotates from round to round, so a
drift in machine speed falls on all of them alike.

The JSON written to ``--out`` holds, per gate run and tree, every run's
wall time, exit code, counts (outcome, hypothesis count and ``extra``),
the sha256 of its output without ``elapsed`` and the load averages when it
started, then the median wall time, the quartiles of the wall times and
their interquartile range as a share of the median.  A run that prints no
JSON report, a crash say, is kept with null counts and digest and the last
line of its stderr.  ``same_output`` says whether every run of every tree
printed the same report, and is false if any printed none; the exit code
is 1 unless it holds for every gate run.  The machine record gives the CPU
count and the Python version, and ``src_lines`` each tree's line count of
``ramsey_k2n/*.py``, as ``wc -l`` counts them.  The printed summary
compares each tree with the first, marks a median difference smaller than
either tree's interquartile range as ``unresolved``, and ends with the
line counts.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

GATE_RUNS = {
    # a counterexample report: the children of parents whose complements
    # have no C_4 are searched
    "thm1.3 n=2 m=4": ("verify", "thm1.3", "--n", "2", "--m", "4"),
    "thm1.3 n=2 m=6": ("verify", "thm1.3", "--n", "2", "--m", "6"),
    "thm1.3 n=2 m=8": ("verify", "thm1.3", "--n", "2", "--m", "8"),
    "thm1.3 n=3 m=8": ("verify", "thm1.3", "--n", "3", "--m", "8"),
    "thm1.6 n=2 m=8": ("verify", "thm1.6", "--n", "2", "--m", "8"),
    "thm1.6 n=2 m=10": ("verify", "thm1.6", "--n", "2", "--m", "10"),
    # the children of parents whose complements have no C_7 go through
    # RamseyFilter.accepts
    "thm1.6 n=3 m=7": ("verify", "thm1.6", "--n", "3", "--m", "7"),
    "thm1.5 m=6": ("verify", "thm1.5", "--m", "6"),
    "thm1.5 m=7": ("verify", "thm1.5", "--m", "7"),
    "thm1.5 m=8": ("verify", "thm1.5", "--m", "8"),
    "lemma-props order 8": ("verify", "lemma-props", "--max-order", "8"),
    "lemma3.1 order 7": ("verify", "lemma3.1", "--max-order", "7"),
    "R(K_{2,2}, C_10)": ("ramsey", "--n", "2", "--cycle", "10"),
    "R(K_{2,3}, C_9)": ("ramsey", "--n", "3", "--cycle", "9"),
    "R(K_{2,3}, C_10)": ("ramsey", "--n", "3", "--cycle", "10"),
    # start-up is nearly all of this run's wall time
    "R(K_{2,3}, C_4)": ("ramsey", "--n", "3", "--cycle", "4"),
}


def run_once(src: str, argv: tuple[str, ...]) -> dict:
    """One CLI run: its wall time, exit code, counts and output digest.
    A run that prints no JSON report gets null counts and digest, and the
    last line of its stderr."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    load = os.getloadavg()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ramsey_k2n", *argv,
         "--output", "json", "--workers", "1"],
        capture_output=True, text=True, env=env)
    run = {"wall_s": round(time.perf_counter() - start, 4),
           "exit_code": proc.returncode,
           "loadavg": [round(x, 2) for x in load]}
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        report = None
    if not isinstance(report, dict):
        lines = proc.stderr.strip().splitlines()
        return {**run, "counts": None, "output_sha256": None,
                "stderr_tail": lines[-1] if lines else ""}
    report.pop("elapsed", None)
    stable = json.dumps(report, sort_keys=True)
    return {**run,
            "counts": {key: report.get(key)
                       for key in ("outcome", "hypothesis_count", "extra")},
            "output_sha256": hashlib.sha256(stable.encode()).hexdigest()}


def src_lines(src: str) -> int:
    """The newline count of the ``ramsey_k2n/*.py`` files under src."""
    return sum(path.read_bytes().count(b"\n")
               for path in pathlib.Path(src, "ramsey_k2n").glob("*.py"))


def spread(walls: list[float]) -> dict:
    """The median of one tree's wall times, their quartiles as
    ``statistics.quantiles(n=4)`` gives them, and the interquartile range
    as a share of the median."""
    q1, _, q3 = statistics.quantiles(walls, n=4)
    median = statistics.median(walls)
    return {"median_wall_s": round(median, 4), "q1_wall_s": round(q1, 4),
            "q3_wall_s": round(q3, 4), "iqr_share": round((q3 - q1) / median, 4)}


def summary(name: str, row: dict, labels: list[str]) -> str:
    """One gate run's line: each tree's median and interquartile share,
    with ``unresolved`` after a tree whose median differs from the first
    tree's by less than either tree's interquartile range."""
    base = row[labels[0]]
    parts = []
    for label in labels:
        tree = row[label]
        gap = abs(tree["median_wall_s"] - base["median_wall_s"])
        noise = max(t["q3_wall_s"] - t["q1_wall_s"] for t in (base, tree))
        parts.append(f"{label} {tree['median_wall_s']:.2f} s"
                     f" (IQR {tree['iqr_share']:.0%})"
                     + (" unresolved" if label != labels[0] and gap < noise else ""))
    return f"{name}: {', '.join(parts)}; same output: {row['same_output']}"


def bench(trees: dict[str, str], runs: int) -> dict:
    labels = list(trees)
    results = {name: {label: [] for label in labels} for name in GATE_RUNS}
    for r in range(runs):
        order = labels[r % len(labels):] + labels[:r % len(labels)]
        for name, argv in GATE_RUNS.items():
            for label in order:
                run = run_once(trees[label], argv)
                results[name][label].append(run)
                print(f"round {r + 1}/{runs} {name} {label}: "
                      f"{run['wall_s']:.2f} s", file=sys.stderr, flush=True)
    table = {}
    for name, per_tree in results.items():
        digests = {run["output_sha256"]
                   for tree_runs in per_tree.values() for run in tree_runs}
        table[name] = {
            "argv": list(GATE_RUNS[name]),
            "same_output": len(digests) == 1 and None not in digests,
            **{label: {**spread([run["wall_s"] for run in tree_runs]),
                       "runs": tree_runs}
               for label, tree_runs in per_tree.items()},
        }
    return {"machine": {"cpu_count": os.cpu_count(),
                        "python": platform.python_version(),
                        "platform": platform.platform()},
            "trees": trees, "runs_per_tree": runs, "gate_runs": table,
            "src_lines": {label: src_lines(path) for label, path in trees.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True,
                        metavar="LABEL=PATH",
                        help="a source tree to time; repeat to compare")
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per gate run and tree (at least 3)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3")
    trees = {}
    for item in args.src:
        label, sep, path = item.partition("=")
        if not sep or not label or label in trees:
            parser.error(f"--src wants a new LABEL=PATH, got {item!r}")
        trees[label] = path
    record = bench(trees, args.runs)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, row in record["gate_runs"].items():
        print(summary(name, row, list(trees)))
    print("ramsey_k2n/*.py lines: " + ", ".join(
        f"{label} {lines}" for label, lines in record["src_lines"].items()))
    return 0 if all(row["same_output"] for row in record["gate_runs"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
