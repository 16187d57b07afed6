"""Time-to-verdict benchmark for the ``ramsey-k2n`` exhaustive verifier.

    python3 perfbench/run.py --workload c4free-o9 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each workload is one deterministic, exhaustive CLI invocation with a
pinned verdict.  With ``--trace 0`` the run spawns the CLI
(``--output json --workers 1``) back to back as a closed loop, one child
at a time, for ``--seconds`` seconds.  It times a fixed calibration loop
right before and right after each child, then spawns two fresh
interpreters that import ``ramsey_k2n.cli`` and build its parser.  All of
it runs on one CPU.  It reports

- ``verdict_s``: the median, over the children, of spawn to exit, which is
  the time a user waits for a verdict, each scaled to the reference
  machine speed by the mean of the two calibration loops around it;
- ``peak_rss_mb``: the mean of the children's peak resident sets, read
  with ``os.wait4``; a child inherits its spawner's peak, so this process
  stays below the CLI's own (``own_peak_rss_mb`` in the record);
- ``setup_s``: the median start-up time of the fresh interpreters, scaled
  the same way.

With ``--trace 1`` it runs a few untraced children, for the raw wall time,
the CPU time and the trace overhead, then traced in-process runs
(``tracer.py``) for the per-layer metrics.  Every run's verdict is
checked against the workload's pinned reference, and all runs of one
benchmark run must print the same JSON bytes apart from ``elapsed``,
although each child gets its own ``PYTHONHASHSEED`` drawn from
``--seed``.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` (so the error rate is failed / attempted) and
``metrics``.  A full record, with raw times and the machine state (CPU
count, load averages, calibration times), goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

MIN_SAMPLES = 3
MIN_TRACED = 2
SETUPS_PER_ROUND = 2
# Seconds that ``calibrate`` takes at the reference machine speed (its
# median on the 2-vCPU 2.1 GHz Xeon VM the workloads were sized on).
# Times are reported at that speed; see ``at_reference_speed``.
CAL_REF_S = 0.14
# Whole run, so that it ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0

SETUP_CODE = "import ramsey_k2n.cli as c; c.build_parser()"


@dataclass(frozen=True)
class Workload:
    cli_argv: tuple[str, ...]
    # Pinned verdict fields; dotted keys reach into nested objects.
    expect: dict
    # (n, cycle length) of a Ramsey run whose witness is re-checked here
    ramsey_witness: tuple[int, int] | None = None

    @property
    def argv(self) -> list[str]:
        # --workers 1 explicitly, so RAMSEY_WORKERS cannot change the run
        return [*self.cli_argv, "--output", "json", "--workers", "1"]


# Why each workload is here is in BENCHMARK.json.  Sizes are chosen so
# that one CLI run takes 1.5-3.5 s on a 2-core machine and a 30 s run of
# the benchmark holds 7-15 of them for the median; one size up, a CLI run
# takes 13-65 s.
WORKLOADS = {
    "c4free-o9": Workload(
        ("verify", "thm1.6", "--n", "2", "--m", "8"),
        {"claim": "thm1.6", "outcome": "verified", "hypothesis_count": 1230,
         "counterexample": None}),
    "allgraphs-props-o7": Workload(
        ("verify", "lemma-props", "--max-order", "7"),
        {"claim": "lemma-props", "outcome": "verified", "hypothesis_count": 1300,
         "counterexample": None,
         "extra.per_lemma_hypothesis_counts": {
             "degree_sum_cycle": 538, "min_degree_hamiltonian": 55,
             "nash_williams": 171, "neighborhood_union_cycle": 536}}),
    "hamilton-m7": Workload(
        ("verify", "thm1.5", "--m", "7"),
        {"claim": "thm1.5", "outcome": "verified", "hypothesis_count": 5,
         "counterexample": None, "extra.relaxed_hypothesis_count": 16}),
    "ramsey-k23-c4": Workload(
        ("ramsey", "--n", "3", "--cycle", "4"),
        # hypothesis_count and the witness bytes are not pinned: claim-side
        # pruning redefines the count and canon changes may pick another
        # representative.  The witness is re-checked by brute force instead.
        {"claim": "ramsey-exact", "outcome": "verified", "extra.value": 8,
         "counterexample": None},
        ramsey_witness=(3, 4)),
    "smoke": Workload(
        ("verify", "thm1.3", "--n", "2", "--m", "6"),
        {"claim": "thm1.3", "outcome": "verified", "hypothesis_count": 117,
         "counterexample": None}),  # under a second, for the self-tests
}

END_TO_END = {"verdict_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Spans reported as <span>_calls and <span>_self_s.  Which workload's
# verdict_s each layer should move: canon.* on c4free-o9 and
# ramsey-k23-c4 (barely on hamilton-m7); enumeration.* on c4free-o9 and
# allgraphs-props-o7; the K_{2,n} filter on c4free-o9 and ramsey-k23-c4;
# the Hamiltonian filter, graphs.* and has_cycle_of_length on
# hamilton-m7; connectivity and circumference on allgraphs-props-o7 only
# (c4free-o9 and ramsey-k23-c4 make no connectivity calls).
LAYER_SPANS = [
    "canon.labeling", "canon.parent_form", "enumeration.orbit_min",
    "enumeration.children", "enumeration.k2n_filter.accepts",
    "enumeration.k2n_filter.candidate_masks",
    "verifier.hamilton_filter.accepts", "graphs.add_vertex",
    "graphs.induced_subgraph", "graphs.complement",
    "invariants.has_cycle_of_length", "invariants.connectivity",
    "invariants.circumference", "invariants.is_hamiltonian",
]
FILTER_SPANS = ("enumeration.k2n_filter.accepts",
                "verifier.hamilton_filter.accepts")


class SetupError(RuntimeError):
    """The benchmark cannot run here (no package, or the import fails)."""


# ---------------------------------------------------------------------------
# verdict gate


def _graph6_adjacency(text: str) -> list[set[int]]:
    """Decode short-form graph6 (order <= 62) without the package."""
    n = ord(text[0]) - 63
    if not 1 <= n <= 62:
        raise ValueError(f"bad graph6 order in {text!r}")
    bitstream = []
    for ch in text[1:]:
        k = ord(ch) - 63
        if not 0 <= k <= 63:
            raise ValueError(f"bad graph6 byte in {text!r}")
        bitstream.extend(k >> s & 1 for s in range(5, -1, -1))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(bitstream) < len(pairs):
        raise ValueError(f"graph6 string {text!r} too short")
    adj = [set() for _ in range(n)]
    for (i, j), bit in zip(pairs, bitstream):
        if bit:
            adj[i].add(j)
            adj[j].add(i)
    return adj


def _has_cycle(adj: list[set[int]], length: int) -> bool:
    """Brute force: some `length` vertices in cyclic order, all adjacent."""
    for chosen in itertools.combinations(range(len(adj)), length):
        first, rest = chosen[0], chosen[1:]
        for order in itertools.permutations(rest):
            cycle = (first, *order)
            if all(cycle[i + 1] in adj[cycle[i]] for i in range(length - 1)) \
                    and first in adj[cycle[-1]]:
                return True
    return False


def ramsey_witness_problem(graph6: str, value: int, n: int, cycle: int) -> str | None:
    """Check a witness for R(K_{2,n}, C_cycle) > value - 1 by brute force."""
    adj = _graph6_adjacency(graph6)
    order = len(adj)
    if order != value - 1:
        return f"witness order {order}, expected {value - 1}"
    for u, v in itertools.combinations(range(order), 2):
        if len(adj[u] & adj[v]) >= n:
            return f"witness contains K_2,{n} on pair {u},{v}"
    comp = [set(range(order)) - adj[v] - {v} for v in range(order)]
    if cycle <= order and _has_cycle(comp, cycle):
        return f"witness complement contains C_{cycle}"
    return None


MISSING = "<missing>"


def _lookup(obj: dict, dotted: str):
    for key in dotted.split("."):
        if not isinstance(obj, dict) or key not in obj:
            return MISSING
        obj = obj[key]
    return obj


def verdict_problem(wl: Workload, exit_code, stdout: str, stderr: str
                    ) -> tuple[str | None, str | None]:
    """(problem or None, verdict JSON without ``elapsed``) for one run."""
    if "Traceback" in stderr:
        return "traceback: " + stderr.strip().splitlines()[-1], None
    if exit_code != 0:
        return f"exit code {exit_code}", None
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return "no JSON verdict on stdout", None
    if not isinstance(report, dict):
        return "verdict is not a JSON object", None
    report.pop("elapsed", None)
    verdict = json.dumps(report, sort_keys=True)
    for key, want in wl.expect.items():
        got = _lookup(report, key)
        if got != want:
            return f"{key}: got {got!r}, expected {want!r}", verdict
    if wl.ramsey_witness is not None:
        witness = _lookup(report, "extra.witness_graph6")
        if not isinstance(witness, str):
            return "no witness graph6", verdict
        try:
            problem = ramsey_witness_problem(
                witness, report["extra"]["value"], *wl.ramsey_witness)
        except ValueError as exc:
            problem = str(exc)
        if problem:
            return problem, verdict
    return None, verdict


# ---------------------------------------------------------------------------
# child processes


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env.pop("RAMSEY_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


@dataclass
class Child:
    exit_code: int | None
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    load_before: float
    load_after: float


def spawn(argv: list[str], hash_seed: int, timeout: float) -> Child:
    """Run one child to its exit; wall time covers spawn to exit."""
    load_before = os.getloadavg()[0]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=child_env(hash_seed),
                            cwd=ROOT, text=True)
    killer = threading.Timer(max(timeout, 0.0), proc.kill)
    killer.start()
    err: list[str] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        # wait4, not Popen.wait, so the child's own rusage comes back
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        proc.kill()
        raise
    finally:
        killer.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(code if code >= 0 else None, out, "".join(err), wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 load_before, os.getloadavg()[0])


def call_counts(traced: dict) -> dict:
    """The deterministic part of a traced run: counts at every call site."""
    return {name: (s["calls"], s["items"], s["truthy"])
            for name, s in traced["spans"].items()}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of the enumeration's kind of
    work: bit tricks on ints and set lookups.  It slows down with the
    machine, so a child's time divided by the loop's time, taken around
    the child, cancels drift in machine speed."""
    t0 = time.perf_counter()
    # At most 1024 entries: a child's peak RSS, as wait4 reads it, is at
    # least this process's peak, so the loop must not grow the process.
    seen = set()
    for m in range(60_000):
        mm = m * 2654435761 & 0xFFFFF
        image = 0
        while mm:
            low = mm & -mm
            image |= 1 << (low.bit_length() * 7 % 20)
            mm ^= low
        image &= 0x3FF
        if image not in seen:
            seen.add(image)
    return time.perf_counter() - t0


def at_reference_speed(sample: dict) -> float:
    """A sample's wall time scaled by the machine speed the calibration
    loop measured around it.

    On a shared machine the speed drifts by a fifth over minutes, which
    moves raw medians between runs; the loop drifts with it.
    """
    return sample["wall_s"] * CAL_REF_S / sample["calibration_s"]


def record_path(name: str, seed: int, trace: bool) -> Path:
    return RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


# ---------------------------------------------------------------------------
# one benchmark run


class Run:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(seed)
        self.start = time.perf_counter()
        self.samples: list[dict] = []
        self.traced: list[dict] = []
        self.setup: list[dict] = []
        self.verdicts: set[str] = set()
        self.record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "cli_argv": self.wl.argv, "nproc": os.cpu_count(),
            "python": platform.python_version(), "commit": git_commit(),
            "calibration_start_s": calibrate(),
        }

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def timeout(self) -> float:
        return RUN_DEADLINE_S - self.elapsed()

    def hash_seed(self) -> int:
        return self.rng.randrange(1, 2**32)

    def setup_sample(self) -> float:
        child = spawn([sys.executable, "-c", SETUP_CODE], self.hash_seed(),
                      self.timeout())
        if child.exit_code != 0:
            raise SetupError("cannot import ramsey_k2n.cli: "
                             + (child.stderr.strip().splitlines() or ["?"])[-1])
        return child.wall_s

    def _gate(self, exit_code, stdout: str, stderr: str) -> str | None:
        problem, verdict = verdict_problem(self.wl, exit_code, stdout, stderr)
        if verdict is not None:
            self.verdicts.add(verdict)
            if problem is None and len(self.verdicts) > 1:
                problem = "verdict bytes differ between runs"
        return problem

    def cli_sample(self) -> None:
        argv = [sys.executable, "-m", "ramsey_k2n", *self.wl.argv]
        before = calibrate()
        child = spawn(argv, self.hash_seed(), self.timeout())
        after = calibrate()
        self.samples.append({
            "wall_s": child.wall_s, "calibration_s": (before + after) / 2,
            "calibration_after_s": after, "cpu_s": child.cpu_s,
            "peak_rss_mb": child.peak_rss_mb, "exit_code": child.exit_code,
            "load_before": child.load_before, "load_after": child.load_after,
            "problem": self._gate(child.exit_code, child.stdout, child.stderr)})

    def traced_sample(self) -> None:
        argv = [sys.executable, str(HERE / "tracer.py"), "--src", str(SRC),
                "--", *self.wl.argv]
        before = calibrate()
        child = spawn(argv, self.hash_seed(), self.timeout())
        calibration = (before + calibrate()) / 2
        try:
            result = json.loads(child.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"exit_code": None, "stdout": "", "wall_s": child.wall_s,
                      "stderr": child.stderr or "tracer printed no result",
                      "spans": {}, "missing": []}
        result["child_wall_s"] = child.wall_s
        result["calibration_s"] = calibration
        result["problem"] = self._gate(result["exit_code"], result["stdout"],
                                       result["stderr"] + child.stderr)
        if self.traced and not result["problem"] \
                and call_counts(result) != call_counts(self.traced[0]):
            result["problem"] = "traced call counts differ between runs"
        self.traced.append(result)

    def timed_round(self) -> None:
        # set-up spawns after each CLI run, so that both medians span the
        # whole run; they follow the CLI run's second calibration
        self.cli_sample()
        calibration = self.samples[-1]["calibration_after_s"]
        for _ in range(SETUPS_PER_ROUND):
            self.setup.append({"wall_s": self.setup_sample(),
                               "calibration_s": calibration})

    def go(self) -> None:
        # untimed: fails fast if the package does not import, and warms the
        # file and bytecode caches
        self.setup_sample()
        if self.trace:
            self._repeat(self.cli_sample, self.samples, self.seconds / 3)
            self._repeat(self.traced_sample, self.traced, self.seconds, MIN_TRACED)
        else:
            self._repeat(self.timed_round, self.samples, self.seconds)
        self.record["calibration_end_s"] = calibrate()
        # the floor under every child's peak_rss_mb; see calibrate
        self.record["own_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    def _repeat(self, step, done: list, budget: float,
                minimum: int = MIN_SAMPLES) -> None:
        """Call ``step`` until ``done`` holds ``minimum`` entries and one
        more step, as long as the last, would end after ``budget``."""
        last = 0.0
        while len(done) < minimum or self.elapsed() + last <= budget:
            t0 = self.elapsed()
            step()
            last = self.elapsed() - t0

    # -- results ------------------------------------------------------------

    def attempts(self) -> list[dict]:
        return self.samples + self.traced

    def end_to_end(self) -> dict:
        return {
            "verdict_s": statistics.median(map(at_reference_speed, self.samples)),
            # a mean: peak RSS barely varies, and its median often repeats
            # to the kilobyte from run to run
            "peak_rss_mb": statistics.fmean(s["peak_rss_mb"] for s in self.samples),
            "setup_s": statistics.median(map(at_reference_speed, self.setup)),
        }

    def per_layer(self) -> dict:
        first = self.traced[0]["spans"]

        def calls(span: str) -> int:
            return first.get(span, {}).get("calls", 0)

        def self_s(span: str) -> float:
            return statistics.median(t["spans"].get(span, {}).get("self_s", 0.0)
                                     for t in self.traced)

        out: dict[str, tuple[float, str]] = {}
        for span in LAYER_SPANS:
            out[f"{span}_calls"] = (calls(span), "count")
            out[f"{span}_self_s"] = (self_s(span), "s")
        out["enumeration.nodes"] = out.pop("enumeration.children_calls")
        accepted = first.get("enumeration.children", {}).get("items", 0)
        out["enumeration.children_accepted"] = (accepted, "count")
        labelings = calls("canon.labeling")
        out["enumeration.accept_ratio"] = (
            accepted / labelings if labelings else 0.0, "ratio")
        out["enumeration.stream_self_s"] = (self_s("enumeration.stream"), "s")
        filter_calls = sum(calls(s) for s in FILTER_SPANS)
        passed = sum(first.get(s, {}).get("truthy", 0) for s in FILTER_SPANS)
        out["filter.pass_ratio"] = (
            passed / filter_calls if filter_calls else 0.0, "ratio")
        out["verifier.self_s"] = (self_s("verifier"), "s")
        out["cli.self_s"] = (self_s("cli"), "s")
        out["cli.cpu_s"] = (statistics.median(s["cpu_s"] for s in self.samples), "s")
        out["cli.wall_s"] = (statistics.median(s["wall_s"] for s in self.samples), "s")
        # spawn to exit, like the untraced wall times
        traced = [{"wall_s": t["child_wall_s"], "calibration_s": t["calibration_s"]}
                  for t in self.traced]
        out["trace.wall_s"] = (statistics.median(t["wall_s"] for t in traced), "s")
        out["trace.overhead_ratio"] = (
            statistics.median(map(at_reference_speed, traced))
            / statistics.median(map(at_reference_speed, self.samples)), "ratio")
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}

    def result(self) -> dict:
        attempts = self.attempts()
        failed = sum(1 for a in attempts if a["problem"])
        metrics = self.per_layer() if self.trace else {
            k: {"value": v, "unit": END_TO_END[k]}
            for k, v in self.end_to_end().items()}
        return {"correct": failed == 0, "attempted": len(attempts),
                "failed": failed, "metrics": metrics}

    def write_record(self, result: dict) -> Path:
        self.record.update(
            setup_s=self.setup, samples=self.samples,
            traced=[{k: v for k, v in t.items() if k != "stdout"}
                    for t in self.traced],
            verdicts=sorted(self.verdicts), result=result)
        RESULTS.mkdir(exist_ok=True)
        path = record_path(self.name, self.record["seed"], self.trace)
        path.write_text(json.dumps(self.record, indent=1, sort_keys=True) + "\n")
        return path


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Run]:
    bench = Run(name, seed, seconds, trace)
    bench.go()
    return bench.result(), bench


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # one CPU for this process, its children and the calibration loop, so
    # that the loop measures the CPU the child ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "ramsey_k2n" / "cli.py").is_file():
        print(f"error: no ramsey_k2n package under {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    try:
        result, bench = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = bench.write_record(result)
    problems = sorted({a["problem"] for a in bench.attempts() if a["problem"]})
    print(f"workload {args.workload}: {result['attempted']} runs, "
          f"{result['failed']} failed, error_rate "
          f"{result['failed'] / result['attempted']:.3f}; record {path.relative_to(ROOT)}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    for site in sorted({m for t in bench.traced for m in t["missing"]}):
        print(f"  trace: call site {site} is gone; its spans read 0")
    for key, metric in result["metrics"].items():
        print(f"  {key:48s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
