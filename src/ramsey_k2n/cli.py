"""Command-line front end.

Subcommands: ``construct`` (build a witness graph and re-verify its
claims), ``check`` (invariants of a graph6 graph from stdin or argument),
``verify`` (exhaustive theorem harnesses, one subcommand per claim),
``ramsey`` (exact small Ramsey values).  Exit codes: 0 success/verified,
1 counterexample or pattern found, 2 invalid parameters or infeasible.

Every ``construct`` kind and ``verify`` claim declares only the options
it reads, and they follow its name: argparse rejects any other option,
or a missing required one, with exit 2.  Graphs are exchanged as graph6
strings.  ``--output json`` emits a stable schema.  ``ramsey`` and every
``verify`` claim but thm1.4 take a worker count (``--workers``, default
RAMSEY_WORKERS), which never changes reported values, only timing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import constructions, verifier
from .constructions import ParameterError
from .graphs import FormatError, GraphError, decode_graph6
from .invariants import (
    PatternParams,
    circumference,
    connectivity,
    cycle_spectrum,
    find_k2n,
    girth,
    has_cycle_of_length,
    independence_number,
)

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_ERROR = 2


def _print_construction(report: constructions.ConstructionReport,
                        output: str) -> int:
    if output == "json":
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        print(f"construction {report.name}  params "
              f"{json.dumps(report.params, sort_keys=True)}")
        print(f"  graph6            {report.to_json_dict()['graph6']}")
        print(f"  complement graph6 {report.to_json_dict()['complement_graph6']}")
        for key in sorted(report.claimed):
            want = report.claimed[key]
            got = report.measured.get(key)
            if key in report.skipped or want is None:
                status = "skipped"
            else:
                status = "ok" if got == want else "MISMATCH"
            print(f"  {key:28s} claimed={want} measured={got} [{status}]")
        for name, ok in sorted(report.checks.items()):
            print(f"  check {name:28s} [{'ok' if ok else 'FAILED'}]")
        for note in report.notes:
            print(f"  note: {note}")
        print(f"  result: {'FAILED' if report.failed else 'verified'}")
    return EXIT_FOUND if report.failed else EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    if args.kind == "star":
        report = constructions.star_witness(args.m)
    elif args.kind == "burr":
        if args.pattern == "k2n":
            pattern = PatternParams.k2n(args.size)
        else:
            pattern = PatternParams.cycle(args.size)
        report = constructions.burr_witness(args.g_order, pattern)
    elif args.kind == "lemma41":
        report = constructions.lemma41_witness(args.m, args.p, args.t)
    else:
        report = constructions.lemma42_witness(args.m, args.q, args.t)
    return _print_construction(report, args.output)


def _read_graph(args: argparse.Namespace):
    text = args.graph6 if args.graph6 else sys.stdin.readline()
    text = text.strip()
    if not text:
        raise FormatError("no graph6 input given (argument or stdin)")
    return decode_graph6(text)


def cmd_check(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    results: dict = {"order": g.order, "edges": g.edge_count()}
    found = False
    if args.k2n is not None:
        witness = find_k2n(g, args.k2n)
        if witness is None:
            results["k2n"] = {"n": args.k2n, "found": False}
        else:
            found = True
            results["k2n"] = {"n": args.k2n, "found": True,
                              "pair": list(witness.pair),
                              "common": sorted(witness.common)}
    if args.cycle is not None:
        witness = has_cycle_of_length(g, args.cycle)
        if witness is None:
            results["cycle"] = {"length": args.cycle, "found": False}
        else:
            found = True
            results["cycle"] = {"length": args.cycle, "found": True,
                                "vertices": list(witness.vertices)}
    if args.circumference:
        results["circumference"] = circumference(g)
    if args.girth:
        value = girth(g)
        results["girth"] = None if value == float("inf") else int(value)
    if args.spectrum:
        results["spectrum"] = sorted(cycle_spectrum(g))
    if args.connectivity:
        results["connectivity"] = connectivity(g)
    if args.alpha:
        results["alpha"] = independence_number(g)
    if args.output == "json":
        print(json.dumps(results, sort_keys=True))
    else:
        for key in results:
            print(f"{key}: {json.dumps(results[key], sort_keys=True)}")
    return EXIT_FOUND if found else EXIT_OK


def _print_verification(report: verifier.VerificationReport, output: str) -> int:
    if output == "json":
        print(json.dumps(report.to_json_dict(), sort_keys=True))
        return report.exit_code
    print(f"claim {report.claim}  params "
          f"{json.dumps(report.params, sort_keys=True)}")
    print(f"  outcome: {report.outcome}")
    print(f"  hypothesis_count: {report.hypothesis_count}")
    if report.counterexample:
        print(f"  counterexample: {report.counterexample['graph6']}")
        print(f"    {report.counterexample['detail']}")
    for note in report.notes:
        print(f"  note: {note}")
    for key, value in sorted(report.extra.items()):
        print(f"  {key}: {json.dumps(value, sort_keys=True)}")
    print(f"  elapsed: {report.elapsed:.2f}s")
    return report.exit_code


def cmd_verify(args: argparse.Namespace) -> int:
    return _print_verification(args.harness(args), args.output)


def cmd_ramsey(args: argparse.Namespace) -> int:
    kind = "cycle" if args.cycle is not None else "cycle_pair"
    m = args.cycle if args.cycle is not None else args.pair
    report = verifier.compute_ramsey(args.n, kind, m, args.max_order,
                                     args.workers)
    code = _print_verification(report, args.output)
    if report.outcome == "verified" and args.output == "human":
        target = f"C_{m}" if kind == "cycle" else f"C_{{{m},{m + 1}}}"
        print(f"R(K_2,{args.n}, {target}) = {report.extra['value']}")
    return code


# Each verify claim: the options it reads besides --output, and its
# harness.  --n and --m are required where read, --max-order defaults
# to 7 and --workers to RAMSEY_WORKERS.
VERIFY_CLAIMS = {
    "thm1.3": (("--n", "--m", "--workers"), lambda a:
               verifier.verify_upper_bound(a.n, a.m, "pair", a.workers)),
    "thm1.6": (("--n", "--m", "--workers"), lambda a:
               verifier.verify_upper_bound(a.n, a.m, "single", a.workers)),
    "thm1.4": (("--n", "--m"), lambda a: verifier.verify_badness(a.n, a.m)),
    "lemma2.6": (("--n", "--m", "--workers"), lambda a:
                 verifier.verify_two_connected_lemma(a.n, a.m, a.workers)),
    "lemma3.1": (("--max-order", "--workers"), lambda a:
                 verifier.verify_lemma_3_1(a.max_order, a.workers)),
    "thm1.5": (("--m", "--workers"), lambda a:
               verifier.verify_hamiltonian_lemma(a.m, a.workers)),
    "lemma-props": (("--max-order", "--workers"), lambda a:
                    verifier.verify_cited_lemmas(a.max_order, a.workers)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramsey-k2n",
        description="Witness constructions and exhaustive verification for "
                    "Ramsey numbers of K_{2,n} versus cycles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, workers=False):
        p.add_argument("--output", choices=["human", "json"], default="human")
        if workers:
            # None unless given: main reads RAMSEY_WORKERS then
            p.add_argument("--workers", type=int)

    pc = sub.add_parser("construct", help="build a witness graph")
    pc.set_defaults(run=cmd_construct)
    kinds = pc.add_subparsers(dest="kind", required=True)
    p = kinds.add_parser("star");  common(p)
    p.add_argument("--m", type=int, required=True)
    p = kinds.add_parser("burr");  common(p)
    p.add_argument("--g-order", dest="g_order", type=int, required=True)
    p.add_argument("--pattern", choices=["k2n", "cycle"], required=True)
    p.add_argument("--size", type=int, required=True)
    p = kinds.add_parser("lemma41");  common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p = kinds.add_parser("lemma42");  common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("check", help="compute invariants of a graph6 graph")
    p.set_defaults(run=cmd_check)
    common(p)
    p.add_argument("graph6", nargs="?", help="graph6 string (default: stdin)")
    p.add_argument("--k2n", type=int, metavar="N")
    p.add_argument("--cycle", type=int, metavar="M")
    p.add_argument("--circumference", action="store_true")
    p.add_argument("--girth", action="store_true")
    p.add_argument("--spectrum", action="store_true")
    p.add_argument("--connectivity", action="store_true")
    p.add_argument("--alpha", action="store_true")

    pv = sub.add_parser("verify", help="run an exhaustive theorem harness")
    claims = pv.add_subparsers(dest="claim", required=True)
    for name, (reads, harness) in VERIFY_CLAIMS.items():
        # no prefix matching: lemma3.1 --m 5 must not read as --max-order 5
        p = claims.add_parser(name, allow_abbrev=False)
        p.set_defaults(run=cmd_verify, harness=harness)
        common(p, workers="--workers" in reads)
        for flag in ("--n", "--m"):
            if flag in reads:
                p.add_argument(flag, type=int, required=True)
        if "--max-order" in reads:
            p.add_argument("--max-order", dest="max_order", type=int, default=7)

    p = sub.add_parser("ramsey", help="compute an exact small Ramsey value")
    p.set_defaults(run=cmd_ramsey)
    common(p, workers=True)
    p.add_argument("--n", type=int, required=True)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--cycle", type=int)
    target.add_argument("--pair", type=int)
    p.add_argument("--max-order", dest="max_order", type=int,
                   default=verifier.RAMSEY_MAX_ORDER)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    workers = getattr(args, "workers", 1)  # 1 where --workers is not declared
    if workers is None:
        try:
            args.workers = max(1, int(os.environ.get("RAMSEY_WORKERS", "1")))
        except ValueError:
            parser.error("RAMSEY_WORKERS must be an integer")
    elif workers < 1:
        parser.error("--workers must be >= 1")
    try:
        return args.run(args)
    except (ParameterError, FormatError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
