import contextlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_k2n import constructions, verifier
from ramsey_k2n.cli import main
from ramsey_k2n.graphs import complete_graph, cycle_graph, encode_graph6

from conftest import PETERSEN, complete_multipartite, random_graph


# --output json payloads of fast runs, minus ``elapsed``; every reported
# value must stay byte-identical.
GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_lemma41(capsys):
    code, out, _ = run(capsys, "construct", "lemma41",
                       "--m", "5", "--p", "1", "--t", "2")
    assert code == 0
    assert "claimed=7 measured=7" in out
    assert "result: verified" in out


def test_construct_human_marks_keys_claimed_none_skipped(capsys):
    code, out, _ = run(capsys, "construct", "burr", "--g-order", "2",
                       "--pattern", "cycle", "--size", "4")
    assert code == 0
    assert "max_common_neighborhood      claimed=None measured=0 [skipped]" in out
    assert "forbidden_cycle_length       claimed=None measured=None [skipped]" \
        in out


def test_construct_invalid_params_exit_2(capsys):
    code, _, err = run(capsys, "construct", "lemma42",
                       "--m", "5", "--q", "2", "--t", "0")
    assert code == 2
    assert "m >= 6" in err


def test_construct_star_above_max_order_exit_2(capsys):
    code, out, err = run(capsys, "construct", "star", "--m", "65")
    assert code == 2 and out == ""
    assert err == "error: star witness requires 3 <= m <= 64, got m=65\n"


def test_construct_burr_total_order_0_exit_2(capsys):
    # an odd cycle has sigma = 1, so g_order 1 would give K_0
    code, out, err = run(capsys, "construct", "burr", "--g-order", "1",
                         "--pattern", "cycle", "--size", "3")
    assert code == 2 and out == ""
    assert err == "error: g_order 1 gives total order 0 for this pattern; " \
        "need a total order >= 1\n"


def test_construct_json_output(capsys):
    code, out, _ = run(capsys, "construct", "star", "--m", "6",
                       "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] is False
    assert payload["params"] == {"m": 6}


def test_check_cycle_witness(capsys):
    c5 = encode_graph6(cycle_graph(5))
    code, out, _ = run(capsys, "check", c5, "--cycle", "5")
    assert code == 1  # pattern found
    assert "[0, 1, 2, 3, 4]" in out


def test_check_k2n_witness(capsys):
    k23 = encode_graph6(complete_multipartite([2, 3]))
    code, out, _ = run(capsys, "check", k23, "--k2n", "2", "--output", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["k2n"]["found"] is True
    assert len(payload["k2n"]["common"]) >= 2


def test_check_petersen_spectrum(capsys):
    g6 = encode_graph6(PETERSEN)
    code, out, _ = run(capsys, "check", g6, "--spectrum", "--girth",
                       "--connectivity", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["spectrum"] == [5, 6, 8, 9]
    assert payload["girth"] == 5
    assert payload["connectivity"] == 3


def test_check_bad_graph6_exit_2(capsys):
    code, _, err = run(capsys, "check", "not-a-graph6-@@@", "--girth")
    assert code == 2
    assert "error" in err


def test_verify_thm13(capsys):
    code, out, _ = run(capsys, "verify", "thm1.3", "--n", "2", "--m", "6",
                       "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "verified"
    assert payload["hypothesis_count"] == 117


def rejected(capsys, *argv):
    """stdout and stderr of an argument list that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_verify_missing_params(capsys):
    _, err = rejected(capsys, "verify", "thm1.3")
    assert "required: --n, --m" in err


def test_unread_options_exit_2(capsys):
    _, err = rejected(capsys, "construct", "star", "--m", "6", "--workers", "2")
    assert "--workers" in err
    out, err = rejected(capsys, "verify", "thm1.3", "--n", "2", "--m", "6",
                        "--max-order", "3")
    assert out == "" and "unrecognized arguments: --max-order 3" in err
    _, err = rejected(capsys, "verify", "thm1.5", "--n", "2", "--m", "6")
    assert "unrecognized arguments: --n 2" in err
    out, err = rejected(capsys, "verify", "thm1.4", "--n", "7", "--m", "5",
                        "--workers", "3")
    assert out == "" and "unrecognized arguments: --workers 3" in err
    out, err = rejected(capsys, "ramsey", "--n", "2", "--cycle", "4",
                        "--m", "5")
    assert out == "" and "unrecognized arguments: --m 5" in err


# The options each verify claim reads, with values that run fast.
CLAIM_OPTIONS = {
    "thm1.3": {"--n": "2", "--m": "4", "--workers": "1"},
    "thm1.6": {"--n": "2", "--m": "4", "--workers": "1"},
    "thm1.4": {"--n": "7", "--m": "5"},
    "lemma2.6": {"--n": "2", "--m": "4", "--workers": "1"},
    "lemma3.1": {"--max-order": "5", "--workers": "1"},
    "thm1.5": {"--m": "4", "--workers": "1"},
    "lemma-props": {"--max-order": "4", "--workers": "1"},
}


@pytest.mark.parametrize("claim", sorted(CLAIM_OPTIONS))
def test_claim_reads_exactly_its_options(capsys, claim):
    reads = CLAIM_OPTIONS[claim]
    argv = ["verify", claim, *(x for item in reads.items() for x in item)]
    assert main(argv) in (0, 1)
    capsys.readouterr()
    # an unread option is rejected and named, even where it is a prefix
    # of one the claim reads (--m of --max-order)
    for flag in ("--n", "--m", "--max-order", "--workers"):
        if flag not in reads:
            out, err = rejected(capsys, *argv, flag, "5")
            assert out == "" and f"unrecognized arguments: {flag} 5" in err
    for flag in ("--n", "--m"):
        if flag in reads:
            rest = [x for item in reads.items() if item[0] != flag
                    for x in item]
            out, err = rejected(capsys, "verify", claim, *rest)
            assert out == "" and f"required: {flag}" in err


def test_bad_env_workers_only_fails_where_read(capsys, monkeypatch):
    monkeypatch.setenv("RAMSEY_WORKERS", "abc")
    c4 = encode_graph6(cycle_graph(4))
    assert run(capsys, "construct", "star", "--m", "6")[0] == 0
    assert run(capsys, "check", c4, "--girth")[0] == 0
    assert run(capsys, "verify", "thm1.4", "--n", "7", "--m", "5")[0] == 0
    assert run(capsys, "ramsey", "--n", "2", "--pair", "6",
               "--workers", "1")[0] == 0
    for argv in (["ramsey", "--n", "2", "--pair", "6"],
                 ["verify", "thm1.3", "--n", "2", "--m", "6"]):
        out, err = rejected(capsys, *argv)
        assert out == "" and "RAMSEY_WORKERS must be an integer" in err


def test_thm14_cover_is_solved_not_searched(capsys):
    start = time.monotonic()
    code, out, _ = run(capsys, "verify", "thm1.4", "--n", "1000000000000000",
                       "--m", "5", "--output", "json")
    assert time.monotonic() - start < 1.0
    assert code == 2 and json.loads(out)["outcome"] == "infeasible"


def test_verify_max_order_where_read(capsys):
    code, out, _ = run(capsys, "verify", "lemma-props", "--max-order", "5",
                       "--output", "json")
    assert code == 0
    assert json.loads(out)["params"] == {"max_order": 5}
    code, out, _ = run(capsys, "verify", "lemma3.1", "--output", "json")
    assert code == 0
    assert json.loads(out)["params"] == {"max_order": 7}


def test_verify_thm14(capsys):
    code, out, _ = run(capsys, "verify", "thm1.4", "--n", "7", "--m", "5")
    assert code == 0
    assert "verified" in out


@pytest.mark.parametrize("n, m", [(7, 5), (14, 6)])  # lemma41, lemma42
def test_verify_thm14_broken_witness_exit_1(capsys, monkeypatch, n, m):
    # a complete complement contains C_2m: the construction report's own
    # measurement must turn the claim into a counterexample
    monkeypatch.setattr(constructions, "_apex_over_cliques",
                        lambda sizes: complete_graph(1 + sum(sizes)))
    code, out, _ = run(capsys, "verify", "thm1.4", "--n", str(n), "--m", str(m),
                       "--output", "json")
    assert code == 1
    report = json.loads(out)
    assert report["outcome"] == "counterexample"
    assert report["counterexample"]["detail"] == "construction report flagged FAILED"


def test_verify_counterexample_exit_1(capsys):
    code, out, _ = run(capsys, "verify", "thm1.6", "--n", "2", "--m", "4",
                       "--output", "json")
    assert code == 1
    assert json.loads(out)["outcome"] == "counterexample"


def test_ramsey_pair(capsys):
    code, out, _ = run(capsys, "ramsey", "--n", "2", "--pair", "6")
    assert code == 0
    assert "R(K_2,2, C_{6,7}) = 7" in out


def test_ramsey_cannot_bracket_exit_2(capsys):
    code, out, _ = run(capsys, "ramsey", "--n", "2", "--pair", "6",
                       "--max-order", "5")
    assert code == 2


def test_ramsey_requires_exactly_one_target(capsys):
    _, err = rejected(capsys, "ramsey", "--n", "2")
    assert "one of the arguments --cycle --pair is required" in err
    _, err = rejected(capsys, "ramsey", "--n", "2", "--pair", "6",
                      "--cycle", "10")
    assert "--cycle: not allowed with argument --pair" in err


def test_json_output_is_stable(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = run(capsys, "verify", "thm1.3", "--n", "2", "--m", "6",
                        "--output", "json")
        payload = json.loads(out)
        payload.pop("elapsed")
        runs.append(json.dumps(payload, sort_keys=True))
    assert runs[0] == runs[1]


def test_workers_do_not_change_output(capsys):
    outs = []
    for workers in ("1", "4"):
        _, out, _ = run(capsys, "verify", "thm1.3", "--n", "2", "--m", "6",
                        "--output", "json", "--workers", workers)
        payload = json.loads(out)
        payload.pop("elapsed")
        outs.append(payload)
    assert outs[0] == outs[1]


def test_workers_do_not_change_ramsey_output(capsys):
    # max_order 12 > 6, so two workers walk the seeds' subtrees in
    # parallel; the tree reaches order 9
    outs = []
    for workers in ("1", "2"):
        _, out, _ = run(capsys, "ramsey", "--n", "2", "--cycle", "9",
                        "--output", "json", "--workers", workers)
        payload = json.loads(out)
        payload.pop("elapsed")
        outs.append(json.dumps(payload, sort_keys=True))
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["extra"]["value"] == 10


def test_ramsey_run_imports_only_what_it_uses():
    # a fresh interpreter without site (which may load typing itself):
    # the command's start-up pays for every module it imports
    src = Path(__file__).parents[1] / "src"
    probe = (
        "import sys\n"
        "from ramsey_k2n.cli import main\n"
        "code = main(['ramsey', '--n', '3', '--cycle', '4',"
        " '--output', 'json', '--workers', '1'])\n"
        "print(sorted(m for m in ('dataclasses', 'inspect',"
        " 'ramsey_k2n.constructions', 'multiprocessing', 'typing')"
        " if m in sys.modules))\n"
        "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    report, loaded = proc.stdout.splitlines()
    assert json.loads(report)["extra"]["value"] == 8
    assert loaded == "[]"


def test_env_var_sets_default_workers(capsys, monkeypatch):
    monkeypatch.setenv("RAMSEY_WORKERS", "2")
    seen = []

    def harness(max_order, workers):
        seen.append(workers)
        return verifier._report("lemma3.1", {}, time.monotonic(), outcome="verified")

    monkeypatch.setattr(verifier, "verify_lemma_3_1", harness)
    run(capsys, "verify", "lemma3.1", "--max-order", "5")
    run(capsys, "verify", "lemma3.1", "--max-order", "5", "--workers", "3")
    monkeypatch.setenv("RAMSEY_WORKERS", "0")  # raised to 1
    run(capsys, "verify", "lemma3.1", "--max-order", "5")
    assert seen == [2, 3, 1]


def test_check_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(encode_graph6(cycle_graph(4)) + "\n"))
    code, out, _ = run(capsys, "check", "--circumference")
    assert code == 0
    assert "circumference: 4" in out


def test_check_circumference_of_unbalanced_complete_bipartite(capsys):
    # lengths 13, 12 and 11 exceed twice the smaller side: no search
    k58 = encode_graph6(complete_multipartite([5, 8]))
    start = time.monotonic()
    code, out, _ = run(capsys, "check", k58, "--circumference")
    assert code == 0 and out == "order: 13\nedges: 40\ncircumference: 10\n"
    assert time.monotonic() - start < 0.5


@pytest.mark.parametrize("sides", [(7, 10), (32, 32)])
def test_check_cycles_of_complete_bipartite_within_a_second(capsys, sides):
    # every odd length and every length above twice the smaller side is
    # answered by the bipartite rule; searched, K_{6,9}'s spectrum alone
    # takes half a minute.  The alarm turns a runaway search into a failure.
    def expire(signum, frame):
        raise TimeoutError(f"check of K_{sides} still running")

    g6 = encode_graph6(complete_multipartite(list(sides)))
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        start = time.monotonic()
        code, out, _ = run(capsys, "check", g6, "--spectrum", "--girth",
                           "--circumference", "--cycle", "15", "--output", "json")
        elapsed = time.monotonic() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    longest = 2 * min(sides)
    assert code == 0 and json.loads(out) == {
        "order": sum(sides), "edges": sides[0] * sides[1],
        "spectrum": list(range(4, longest + 1, 2)), "girth": 4,
        "circumference": longest, "cycle": {"found": False, "length": 15}}
    assert elapsed < 1


def _golden_ids(cases):
    """A case's command and first word, or its whole argument list where
    an earlier case has that prefix."""
    ids = []
    for case in cases:
        short = "_".join(case["argv"][:2])
        ids.append("_".join(case["argv"]) if short in ids else short)
    return ids


# a case marked slow (about 10 s or more) runs under ``pytest -m slow``
@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.slow) if case.get("slow") else case
    for case in GOLDEN], ids=_golden_ids(GOLDEN))
def test_json_output_matches_golden(capsys, case):
    takes_workers = (case["argv"][0] == "ramsey" or case["argv"][0] == "verify"
                     and case["argv"][1] != "thm1.4")
    workers = ["--workers", "1"] if takes_workers else []
    code, out, err = run(capsys, *case["argv"], "--output", "json", *workers)
    payload = json.loads(out)
    payload.pop("elapsed", None)
    assert code == case["exit"] and err == ""
    assert json.dumps(payload, sort_keys=True) \
        == json.dumps(case["output"], sort_keys=True)


def _option(draw, argv, flag, values):
    value = draw(st.one_of(st.none(), values))
    if value is not None:
        argv += [flag, str(value)]


@st.composite
def cli_invocations(draw):
    """verify, ramsey and check argument lists, valid or not, whose runs
    stay at order <= 7; plus a RAMSEY_WORKERS value or None."""
    small = st.integers(-1, 6)
    command = draw(st.sampled_from(["verify", "ramsey", "check"]))
    argv = [command]
    if command == "verify":
        argv.append(draw(st.sampled_from(["thm1.3", "thm1.6", "thm1.4",
                                          "lemma2.6", "lemma3.1", "thm1.5",
                                          "lemma-props"])))
        _option(draw, argv, "--n", st.integers(-1, 4))
        _option(draw, argv, "--m", small)
        _option(draw, argv, "--max-order", st.integers(-1, 7))
    elif command == "ramsey":
        argv += ["--n", str(draw(st.integers(-1, 3)))]
        targets = draw(st.sampled_from([["--cycle"], ["--pair"], [],
                                        ["--cycle", "--pair"]] * 2 + [[]]))
        for flag in targets:
            argv += [flag, str(draw(small))]
        argv += ["--max-order", str(draw(st.integers(-1, 7)))]
    else:
        seed = draw(st.integers(0, 2**16))
        rng = random.Random(seed)
        g = random_graph(rng.randint(1, 7), rng.random(), rng)
        argv.append(draw(st.sampled_from([encode_graph6(g)] * 3 + ["", "~~"])))
        _option(draw, argv, "--cycle", st.integers(0, 9))
        _option(draw, argv, "--k2n", st.integers(0, 4))
        for flag in ("--circumference", "--girth", "--spectrum",
                     "--connectivity", "--alpha"):
            if draw(st.booleans()):
                argv.append(flag)
    if command != "check":  # check takes no --workers
        _option(draw, argv, "--workers", st.sampled_from([1, 1, 2, 2, 0, -1]))
    if draw(st.booleans()):
        argv += ["--output", "json"]
    env = draw(st.sampled_from([None, None, None, "2", "0", "abc"]))
    return argv, env


# The lowest order each command that reads --max-order searches: a
# --max-order below it is a bad parameter.
LOWEST_ORDER = {"lemma3.1": 5, "lemma-props": 3, "ramsey": 1}


@settings(max_examples=100, deadline=None)
@given(cli_invocations())
def test_every_invocation_exits_0_1_or_2_without_traceback(invocation):
    argv, env = invocation
    environ = {} if env is None else {"RAMSEY_WORKERS": env}
    out, err = io.StringIO(), io.StringIO()
    returned = True
    with mock.patch.dict(os.environ, environ), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO("")):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
            returned = False
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    name = argv[0] if argv[0] == "ramsey" else argv[1]
    if "--max-order" in argv and name in LOWEST_ORDER:
        if int(argv[argv.index("--max-order") + 1]) < LOWEST_ORDER[name]:
            assert code == 2, argv
    if returned and argv[0] != "check" and "json" in argv:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict), \
            (argv, out.getvalue(), err.getvalue())
