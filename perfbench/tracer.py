"""Per-layer tracer for one in-process run of the ``ramsey-k2n`` CLI.

Layers are timed from outside the package: each entry of ``CALL_SITES``
names a module attribute through which one layer calls another, and
``Tracer.install`` replaces that attribute with a wrapper that counts
every call and records a span around it.  Generator call sites (the
verifier's ``enumerate_parallel`` stream and the enumeration's
``_children``) count one call per invocation but get one span per
``next()``, because their work happens while they are iterated, not when
they are called.  A call site that no longer exists is skipped
and reports zero calls, so the tracer keeps working when a later change
renames or deletes an internal function.

Spans are aggregated in memory, per name, and written out when the run
ends: a run makes millions of spans, too
many to keep one by one.  A span's self time is its duration minus the
durations of the spans it directly caused.

Run as a script, it runs ``ramsey_k2n.cli.main`` on the given arguments
in this process and prints one JSON object with the CLI's exit code and
stdout, the traced wall time and the span aggregates:

    python3 perfbench/tracer.py --src src -- verify thm1.3 --n 2 --m 6 --output json --workers 1
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import sys
import time
import traceback

# (module, attribute path, span name, kind).  "call" spans one call,
# "filter" also counts truthy results, "gen" spans each next() of the
# returned iterator and counts the items it yields besides the calls.
CALL_SITES = [
    ("enumeration", "canonical_labeling", "canon.labeling", "call"),
    ("enumeration", "canonical_form", "canon.parent_form", "call"),
    ("enumeration", "_children", "enumeration.children", "gen"),
    ("enumeration", "_orbit_min", "enumeration.orbit_min", "call"),
    ("enumeration", "add_vertex", "graphs.add_vertex", "call"),
    ("enumeration", "induced_subgraph", "graphs.induced_subgraph", "call"),
    ("enumeration", "K2nFreeFilter.accepts",
     "enumeration.k2n_filter.accepts", "filter"),
    ("enumeration", "K2nFreeFilter.candidate_masks",
     "enumeration.k2n_filter.candidate_masks", "call"),
    ("verifier", "HamiltonianHypothesisFilter.accepts",
     "verifier.hamilton_filter.accepts", "filter"),
    ("verifier", "enumerate_parallel", "enumeration.stream", "gen"),
    ("verifier", "complement", "graphs.complement", "call"),
    ("verifier", "has_cycle_of_length", "invariants.has_cycle_of_length", "call"),
    ("verifier", "connectivity", "invariants.connectivity", "call"),
    ("verifier", "circumference", "invariants.circumference", "call"),
    ("verifier", "is_hamiltonian", "invariants.is_hamiltonian", "call"),
    # the harness entry points the CLI calls, all under one span name
    ("verifier", "verify_upper_bound", "verifier", "call"),
    ("verifier", "verify_cited_lemmas", "verifier", "call"),
    ("verifier", "verify_hamiltonian_lemma", "verifier", "call"),
    ("verifier", "verify_two_connected_lemma", "verifier", "call"),
    ("verifier", "verify_lemma_3_1", "verifier", "call"),
    ("verifier", "compute_ramsey", "verifier", "call"),
]

PACKAGE = "ramsey_k2n"
ROOT_SPAN = "cli"


class Tracer:
    """Span aggregates: name -> [calls, total_s, child_s, truthy, items]."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.stack: list[list] = []  # open spans: [child_s]
        self.installed: list[tuple] = []  # (owner, attribute, original)
        self.missing: list[str] = []

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])

    def _close(self, stat: list, frame: list, dt: float) -> None:
        """End the innermost span; its time is child time of its parent."""
        stack = self.stack
        stack.pop()
        stat[1] += dt
        stat[2] += frame[0]
        if stack:
            stack[-1][0] += dt

    def wrap_call(self, name: str, fn, count_truthy: bool = False):
        stat = self._stat(name)
        stack = self.stack
        clock = time.perf_counter
        close = self._close

        def wrapper(*args, **kwargs):
            stat[0] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(stat, frame, clock() - t0)
            if count_truthy and result:
                stat[3] += 1
            return result

        return wrapper

    def wrap_gen(self, name: str, fn):
        stat = self._stat(name)
        stack = self.stack
        clock = time.perf_counter
        close = self._close

        def wrapper(*args, **kwargs):
            stat[0] += 1
            it = iter(fn(*args, **kwargs))

            def spans():
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        close(stat, frame, clock() - t0)
                        return
                    except BaseException:
                        close(stat, frame, clock() - t0)
                        raise
                    close(stat, frame, clock() - t0)
                    stat[4] += 1
                    yield item

            return spans()

        return wrapper

    def install(self) -> None:
        """Replace every call site that exists; record the ones that do not."""
        for module_name, path, name, kind in CALL_SITES:
            self._stat(name)
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if kind == "gen":
                wrapped = self.wrap_gen(name, fn)
            else:
                wrapped = self.wrap_call(name, fn, count_truthy=kind == "filter")
            setattr(owner, attr, wrapped)
            self.installed.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self.installed):
            setattr(owner, attr, fn)
        self.installed.clear()

    def span_table(self) -> dict:
        return {
            name: {"calls": s[0], "total_s": s[1], "self_s": s[1] - s[2],
                   "truthy": s[3], "items": s[4]}
            for name, s in sorted(self.stats.items())
        }


def traced_main(cli_argv: list[str]) -> dict:
    """Run the CLI once in this process under the tracer."""
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    main = tracer.wrap_call(ROOT_SPAN, cli.main)
    out = io.StringIO()
    err = io.StringIO()
    crash = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(cli_argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        crash = traceback.format_exc()
    finally:
        wall = time.perf_counter() - t0
        tracer.uninstall()
    return {"exit_code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue() + (crash or ""),
            "wall_s": wall, "spans": tracer.span_table(),
            "missing": tracer.missing}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="directory that holds the ramsey_k2n package")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv
    sys.path.insert(0, args.src)
    result = traced_main(cli_argv)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
