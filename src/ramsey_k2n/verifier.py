"""Exhaustive machine verification of the Ramsey claims at small order.

Every harness enumerates an isomorph-free stream of graphs, filters to the
claim's hypothesis, and checks the conclusion on each survivor.  Outcomes:

- ``verified``          — hypothesis non-empty, zero violations
- ``verified-vacuous``  — hypothesis empty (reported distinctly, never
                          conflated with a substantive pass)
- ``counterexample``    — some graph satisfies the hypothesis and violates
                          the conclusion; of those found, the one with the
                          least graph6 string is reported, with a note on
                          what it violates
- ``infeasible``        — parameters invalid or outside desk-scale guidelines

Reports are deterministic for fixed parameters; worker count never changes
any reported value.  Harnesses read the enumeration's rows and build a
``Graph``, which validates it, only for a counterexample or witness.
"""

from __future__ import annotations

import time
from collections import namedtuple
from itertools import permutations

from .enumeration import (
    GenerationFilter,
    K2nFreeFilter,
    enumerate_orders,
    enumerate_parallel,
)
from .graphs import (
    MAX_ORDER,
    Graph,
    ParameterError,
    complement_rows,
    encode_graph6,
)
from .invariants import (
    CYCLE_CAP,
    all_cycles_of_length,
    certified,
    circumference,
    has_cycle_through_last,
    independence_number,
    is_hamiltonian,
    two_connected,
)

UPPER_BOUND_MAX_ORDER = 16
LEMMA_3_1_MAX_ORDER = 9
HAMILTONIAN_LEMMA_MAX_ORDER = 10
RAMSEY_MAX_ORDER = 12


class VerificationReport(namedtuple(
        "VerificationReport", "claim params outcome hypothesis_count "
        "counterexample elapsed notes extra")):
    """One harness run, as ``_report`` builds it.  ``outcome`` is verified,
    verified-vacuous, counterexample or infeasible."""

    __slots__ = ()

    @property
    def exit_code(self) -> int:
        if self.outcome in ("verified", "verified-vacuous"):
            return 0
        if self.outcome == "counterexample":
            return 1
        return 2

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "elapsed": round(self.elapsed, 3),
                "notes": list(self.notes)}


def _report(claim: str, params: dict, start: float, count: int = 0,
            cex: dict | None = None, notes: tuple[str, ...] = (),
            extra: dict | None = None,
            outcome: str | None = None) -> VerificationReport:
    """The report of a run begun at ``start``.  Without an explicit
    outcome: counterexample if one was found, else verified over a
    non-empty hypothesis set, else verified-vacuous."""
    if outcome is None:
        outcome = ("counterexample" if cex
                   else "verified" if count else "verified-vacuous")
    return VerificationReport(claim, params, outcome, count, cex,
                              time.monotonic() - start, notes,
                              {} if extra is None else extra)


def _pick(current: dict | None, adj: tuple[int, ...], detail: str) -> dict:
    """The counterexample of least graph6 (worker-order invariant) among
    ``current`` and the graph with rows ``adj``, which violates
    ``detail``; ``current`` on ties."""
    g6 = encode_graph6(Graph(len(adj), adj))
    if current is None or g6 < current["graph6"]:
        return {"graph6": g6, "detail": detail}
    return current


class RamseyFilter(K2nFreeFilter):
    """K_{2,n}-free graphs whose complement has no cycle of the target
    lengths: the graphs a Ramsey value's lower bound rests on.

    Both conditions survive vertex deletion.  The candidate masks are
    K2nFreeFilter's of at least a degree floor, so a child of a passing
    parent fails only through a target cycle of its complement through the
    new vertex.  Off the new vertex, every sibling's complement has the
    parent's complement's rows, so a cycle found in one sibling's
    complement settles each later one whose complement joins the new
    vertex to both ends of its path (``has_cycle_through_last``, with the
    ``ends`` of the parent).

    The floor rests on a lemma.  Let G be K_{2,n}-free on N >= 3n-1
    vertices with a non-Hamiltonian complement.  Then G has a vertex of
    degree at least N-n-1.  Proof: the complement's independence number
    is at most n+1, since K_{n+2} contains K_{2,n}.  By Chvátal and Erdős
    ("A note on Hamiltonian circuits", Discrete Math. 2, 1972), a graph on
    at least 3 vertices whose connectivity is at least its independence
    number is Hamiltonian, so the complement's connectivity is at most n.
    Removing at most n vertices therefore leaves a component A and a rest
    B, with |A| + |B| >= 2n-1, that G joins completely, and
    K_{2,n}-freeness makes one side a single vertex.  At an order
    N >= max(3, 3n-1) that is a target length, a C_N is Hamiltonian, so
    every passing graph of order N has a vertex of degree at least N-n-1,
    and a mask of fewer vertices is not listed: its child either fails
    the filter or has a vertex of higher degree than the new one.
    """

    def __init__(self, n: int, lengths: tuple[int, ...]):
        super().__init__(n)
        self.lengths = lengths

    def candidate_masks(self, adj: tuple[int, ...]) -> list[int]:
        n, order = self.n, len(adj) + 1
        least = 0
        if order in self.lengths and order >= max(3, 3 * n - 1):
            least = order - n - 1
        return super().candidate_masks(adj, least)

    def accepts(self, rows: tuple[int, ...],
                ends: dict[int, list[int]]) -> bool:
        return not has_cycle_through_last(complement_rows(rows), self.lengths,
                                          ends)


def verify_upper_bound(
    n: int, m: int, variant: str = "pair", workers: int = 1
) -> VerificationReport:
    """Every K_{2,n}-free graph on m+1 vertices has C_m (or C_{m+1}) in its
    complement.

    variant="pair" checks C_m-or-C_{m+1} (claimed for m >= 2n+2, proof
    opens at m >= 2n+1; both thresholds are reported, neither asserted);
    variant="single" checks C_m only (claimed for m >= 3n+4).

    The walk runs over orders m and m+1, so each order-(m+1) graph comes
    right after its parent, the latest order-m graph, on any worker
    count.  Only the parents' complements are searched whole.  The
    child's complement holds the parent's as an induced subgraph, so a
    C_m in the parent's complement settles every child that follows it.
    A parent without one passes ``RamseyFilter``, since its complement is
    too small for a C_{m+1}, so each of its children, new vertex last, is
    a counterexample exactly when the filter ``accepts`` it; the children
    share one ``ends`` dict, as siblings do in generation.  Only graphs
    of order m+1 are counted.
    """
    if variant not in ("single", "pair"):
        raise ParameterError(f"variant must be single or pair, got {variant!r}")
    claim = "thm1.3" if variant == "pair" else "thm1.6"
    params = {"n": n, "m": m, "variant": variant, "order": m + 1}
    start = time.monotonic()
    if n < 2 or m < 3:
        return _report(claim, params, start, outcome="infeasible",
                       notes=("n >= 2 and m >= 3 required",))
    if m + 1 > UPPER_BOUND_MAX_ORDER:
        return _report(claim, params, start, outcome="infeasible",
                       notes=(f"order {m + 1} beyond guideline "
                              f"{UPPER_BOUND_MAX_ORDER} for filtered "
                              "enumeration",))
    notes = []
    if variant == "pair":
        notes.append(f"stated range m >= 2n+2 = {2 * n + 2}: "
                     f"{'inside' if m >= 2 * n + 2 else 'outside'}")
        notes.append(f"proof range m >= 2n+1 = {2 * n + 1}: "
                     f"{'inside' if m >= 2 * n + 1 else 'outside'}")
    else:
        notes.append(f"stated range m >= 3n+4 = {3 * n + 4}: "
                     f"{'inside' if m >= 3 * n + 4 else 'outside'}")
    lengths = (m,) if variant == "single" else (m, m + 1)
    flt = RamseyFilter(n, lengths)
    count = 0
    cex: dict | None = None
    ends: dict | None = None  # the latest parent's, None if it has a C_m
    for adj in enumerate_orders(m, m + 1, K2nFreeFilter(n), workers):
        if len(adj) == m:
            covered = all_cycles_of_length(complement_rows(adj), m, 1)[0]
            ends = None if covered else {}
            continue
        count += 1
        if ends is not None and flt.accepts(adj, ends):
            wanted = " or ".join(f"C_{ln}" for ln in lengths)
            cex = _pick(cex, adj,
                        f"K_2,{n}-free graph whose complement has no {wanted}")
    return _report(claim, params, start, count, cex, notes=tuple(notes))


def verify_badness(n: int, m: int) -> VerificationReport:
    """A witness on n+m+1 vertices shows R(K_{2,n}, C_{2m}) > n+m+1."""
    from .constructions import (  # only thm1.4 builds witnesses
        badness_parameter_cover, lemma41_witness, lemma42_witness)

    params = {"n": n, "m": m, "order": n + m + 1}
    start = time.monotonic()
    cover = None
    try:
        cover = badness_parameter_cover(n, m)
        kind = cover["construction"]
        if kind in ("unknown", "uncovered"):
            return _report("thm1.4", params, start, outcome="infeasible",
                           notes=(cover.get("reason", kind),),
                           extra={"cover": cover})
        if kind == "lemma41":
            report = lemma41_witness(m, cover["p"], cover["t"])
        else:
            report = lemma42_witness(m, cover["q"], cover["t"])
    except ParameterError as exc:  # no cover where n or m is out of range
        return _report("thm1.4", params, start, outcome="infeasible",
                       notes=(str(exc),), extra=cover and {"cover": cover})
    g = report.graph
    problems = []
    if g.order != n + m + 1:
        problems.append(f"witness order {g.order} != {n + m + 1}")
    # the report's checks and measured values include K_{2,n}-freeness
    # and the absence of C_{2m} from the complement
    if report.failed:
        problems.append("construction report flagged FAILED")
    if problems:
        return _report("thm1.4", params, start, 1,
                       _pick(None, g.adj, "; ".join(problems)),
                       extra={"cover": cover})
    return _report("thm1.4", params, start, 1,
                   extra={"cover": cover, "witness_graph6": encode_graph6(g)})


def _check_observations(adj: tuple[int, ...],
                        cycle: tuple[int, ...]) -> tuple[int, str | None]:
    """Check the three longest-cycle adjacency restrictions on one cycle
    of the graph with rows ``adj`` that leaves two or more vertices off it.

    Returns (pairs examined, violation description or None).  A pattern
    whose two target vertices coincide implies no longer cycle and is
    skipped.
    """
    l = len(cycle)
    xset = [v for v in range(len(adj)) if v not in cycle]
    nbr_idx = {x: [i for i in range(l) if adj[x] >> cycle[i] & 1] for x in xset}
    pairs = 0
    for x in xset:
        idx = nbr_idx[x]
        for i in idx:
            if (i + 1) % l in idx:
                return pairs, (f"obs1: vertex {x} adjacent to consecutive "
                               f"cycle vertices {cycle[i]},{cycle[(i + 1) % l]}")
    for ai, x in enumerate(xset):
        for y in xset[ai + 1:]:
            pairs += 1
            for x_, y_ in ((x, y), (y, x)):
                xi, yrow = nbr_idx[x_], adj[y_]
                for i, j in permutations(xi, 2):
                    for d1, d2 in ((1, 1), (-1, -1), (1, 2), (-1, -2)):
                        a, b = (i + d1) % l, (j + d2) % l
                        if a != b and yrow >> cycle[a] & 1 and yrow >> cycle[b] & 1:
                            obs = "obs2" if abs(d2) == 1 else "obs3"
                            return pairs, (
                                f"{obs}: x={x_} adjacent to cycle "
                                f"positions {i},{j}; y={y_} adjacent to "
                                f"offsets {d1:+},{d2:+} of them")
    return pairs, None


def verify_lemma_3_1(max_order: int, workers: int = 1) -> VerificationReport:
    """Adjacency restrictions for two vertices off a longest cycle.

    For every graph up to max_order, every maximum-length cycle (dedup up
    to rotation/reflection, capped), every off-cycle pair: no off-cycle
    vertex has two consecutive cycle neighbors, and the paired shift
    patterns (+1,+1), (-1,-1), (+1,+2), (-1,-2) never both land in the
    other vertex's neighborhood.
    """
    params = {"max_order": max_order}
    start = time.monotonic()
    lowest = 5
    if max_order < lowest:
        return _report("lemma3.1", params, start, outcome="infeasible",
                       notes=(f"max_order >= {lowest} required",))
    if max_order > LEMMA_3_1_MAX_ORDER:
        return _report("lemma3.1", params, start, outcome="infeasible",
                       notes=(f"max_order beyond guideline "
                              f"{LEMMA_3_1_MAX_ORDER}",))
    triples = 0
    graphs_seen = 0
    cap_hits = 0
    cex: dict | None = None
    for adj in enumerate_orders(lowest, max_order, workers=workers):
        graphs_seen += 1
        circ = circumference(adj)
        if not 0 < circ <= len(adj) - 2:
            continue
        cycles, capped = all_cycles_of_length(adj, circ, CYCLE_CAP)
        if capped:
            cap_hits += 1
        for cycle in cycles:
            pairs, violation = _check_observations(adj, cycle)
            triples += pairs
            if violation is not None:
                cex = _pick(cex, adj, f"cycle {list(cycle)}: {violation}")
    return _report("lemma3.1", params, start, triples, cex,
                   notes=(f"cycle cap hit on {cap_hits} graphs",),
                   extra={"graphs_examined": graphs_seen,
                          "cycle_cap": CYCLE_CAP})


class HamiltonianHypothesisFilter(GenerationFilter):
    """Hereditary relaxation of the Hamiltonicity lemma's hypothesis:
    C_m-free, with the pair-union bound on nonadjacent pairs.

    Both conditions survive vertex deletion: C_m-freeness directly, and
    the pair-union bound with slack m+1-k at order k, since adding one
    vertex grows any pair's neighborhood union by at most one.
    ``accepts`` is asked only about children of passing parents, and such
    a child can gain a C_m only through its new vertex.  Let S be the new
    vertex's neighbourhood.  A parent pair with an end in S gains the new
    vertex in its union while the slack drops by one, so it still passes;
    ``accepts`` checks again only the nonadjacent pairs with no end in S,
    the new vertex paired with each of its non-neighbours included.  Its
    search for a C_m through the new vertex records the ends of each path
    found in the parent's ``ends``, so a later sibling adjacent to both
    ends is settled first, without a search (``certified``).  The
    bound on adjacent pairs would prune too, but the harness counts the
    graphs without it as well, so it and 2-connectivity (not hereditary)
    are checked only at the top, by ``pair_bound_holds`` over all pairs.
    """

    def __init__(self, m: int):
        self.m = m

    def pair_bound_holds(self, adj: tuple[int, ...], adjacent: bool,
                         among: int = -1) -> bool:
        """2 * (|N(u) | N(v) - {u, v}| + m+1-k) >= m for every adjacent
        (or every nonadjacent) pair u, v of vertices in the mask ``among``
        (all by default) of the graph with rows ``adj``, where k is its
        order."""
        m = self.m
        k = len(adj)
        slack = m + 1 - k
        rest = among & ((1 << k) - 1)
        while rest:
            bit_u = rest & -rest
            rest ^= bit_u  # now the vertices of among above u
            row = adj[bit_u.bit_length() - 1]
            later = (row if adjacent else ~row) & rest
            while later:
                bit_v = later & -later
                later ^= bit_v
                # |N(u) | N(v) - {u, v}|
                union = ((row | adj[bit_v.bit_length() - 1])
                         & ~(bit_u | bit_v)).bit_count()
                if 2 * (union + slack) < m:
                    return False
        return True

    def accepts(self, rows: tuple[int, ...],
                ends: dict[int, list[int]]) -> bool:
        return (not certified(rows, (self.m,), ends)
                and self.pair_bound_holds(rows, adjacent=False, among=~rows[-1])
                and not has_cycle_through_last(rows, (self.m,), ends))


def verify_hamiltonian_lemma(m: int, workers: int = 1) -> VerificationReport:
    """2-connected, C_m-free, all pair unions >= m/2 on m+1 vertices
    implies Hamiltonian.

    The m/2 bound is compared exactly (2*count >= m), with no rounding.
    The pair condition ranges over all distinct vertex pairs; the count
    under nonadjacent pairs only is reported as supplementary information.
    The all-pairs set is the nonadjacent-pairs set cut down by the bound
    on adjacent pairs, so one traversal under the nonadjacent reading
    counts both.
    """
    params = {"m": m, "order": m + 1}
    start = time.monotonic()
    if m < 3:
        return _report("thm1.5", params, start, outcome="infeasible",
                       notes=("m >= 3 required",))
    if m + 1 > HAMILTONIAN_LEMMA_MAX_ORDER:
        return _report("thm1.5", params, start, outcome="infeasible",
                       notes=(f"order beyond guideline "
                              f"{HAMILTONIAN_LEMMA_MAX_ORDER}",))
    count = 0
    relaxed = 0
    cex: dict | None = None
    flt = HamiltonianHypothesisFilter(m)
    for adj in enumerate_parallel(m + 1, flt, workers):
        if not two_connected(adj):
            continue
        relaxed += 1
        if not flt.pair_bound_holds(adj, adjacent=True):
            continue
        count += 1
        if is_hamiltonian(adj) is None:
            cex = _pick(cex, adj, "satisfies hypothesis but is not Hamiltonian")
    return _report("thm1.5", params, start, count, cex,
                   notes=("pair-union bound read over all distinct pairs; "
                          "nonadjacent-pairs-only reading counted in "
                          "extra.relaxed_hypothesis_count",),
                   extra={"relaxed_hypothesis_count": relaxed})


def verify_two_connected_lemma(n: int, m: int, workers: int = 1) -> VerificationReport:
    """K_{2,n}-free G on m+1 vertices with C_m-free complement has
    2-connected complement."""
    params = {"n": n, "m": m, "order": m + 1}
    start = time.monotonic()
    if n < 1 or m < 3:
        return _report("lemma2.6", params, start, outcome="infeasible",
                       notes=("n >= 1 and m >= 3 required",))
    if m + 1 > HAMILTONIAN_LEMMA_MAX_ORDER:
        return _report("lemma2.6", params, start, outcome="infeasible",
                       notes=(f"order beyond guideline "
                              f"{HAMILTONIAN_LEMMA_MAX_ORDER}",))
    in_range = m >= 2 * n + 2
    count = 0
    cex: dict | None = None
    for adj in enumerate_parallel(m + 1, RamseyFilter(n, (m,)), workers):
        count += 1
        if not two_connected(complement_rows(adj)):
            cex = _pick(cex, adj, "complement is C_m-free but not 2-connected")
    note = (f"stated range m >= 2n+2 = {2 * n + 2}: "
            f"{'inside' if in_range else 'outside (outcome reported, not asserted)'}")
    return _report("lemma2.6", params, start, count, cex, notes=(note,))


def verify_cited_lemmas(max_order: int, workers: int = 1) -> VerificationReport:
    """Classical cycle lemmas checked exhaustively at small order.

    - degree-sum cycle bound: 2-connected with nonadjacent degree sums
      >= k implies a cycle of length >= min(k, order)
    - minimum-degree Hamiltonicity: 2*delta >= order (order >= 3) implies
      Hamiltonian
    - Nash-Williams: 2-connected with 3*delta >= order+2 and
      delta >= independence number implies Hamiltonian
    - neighborhood-union bound: 2-connected with all pair unions >= k and
      circumference >= order-k implies circumference >= min(2k-2, order-1)
    """
    params = {"max_order": max_order}
    start = time.monotonic()
    lowest = 3
    if max_order < lowest:
        return _report("lemma-props", params, start, outcome="infeasible",
                       notes=(f"max_order >= {lowest} required",))
    if max_order > LEMMA_3_1_MAX_ORDER:
        return _report("lemma-props", params, start, outcome="infeasible",
                       notes=(f"max_order beyond guideline "
                              f"{LEMMA_3_1_MAX_ORDER}",))
    counts = {"degree_sum_cycle": 0, "min_degree_hamiltonian": 0,
              "nash_williams": 0, "neighborhood_union_cycle": 0}
    cex: dict | None = None
    for adj in enumerate_orders(lowest, max_order, workers=workers):
        n_ = len(adj)
        degrees = [row.bit_count() for row in adj]
        delta = min(degrees)
        two_conn = two_connected(adj)
        if not (two_conn or 2 * delta >= n_):
            continue  # no lemma below reads this graph's circumference
        circ = circumference(adj)
        if 2 * delta >= n_:
            counts["min_degree_hamiltonian"] += 1
            if circ != n_:
                cex = _pick(cex, adj, "min_degree_hamiltonian")
        if two_conn:
            # one pass over the pairs: the least nonadjacent degree sum k
            # and the least union ku = |N(u) | N(v) - {u, v}| over all pairs
            k = ku = n_
            for u in range(n_):
                for v in range(u + 1, n_):
                    ku = min(ku, ((adj[u] | adj[v])
                                  & ~(1 << u | 1 << v)).bit_count())
                    if not adj[u] >> v & 1:
                        k = min(k, degrees[u] + degrees[v])
            counts["degree_sum_cycle"] += 1
            if circ < min(k, n_):
                cex = _pick(cex, adj, "degree_sum_cycle")
            if 3 * delta >= n_ + 2 and delta >= independence_number(adj):
                counts["nash_williams"] += 1
                if circ != n_:
                    cex = _pick(cex, adj, "nash_williams")
            if circ >= n_ - ku:
                counts["neighborhood_union_cycle"] += 1
                if circ < min(2 * ku - 2, n_ - 1):
                    cex = _pick(cex, adj, "neighborhood_union_cycle")
    return _report("lemma-props", params, start, sum(counts.values()), cex,
                   extra={"per_lemma_hypothesis_counts": counts})


def compute_ramsey(n: int, kind: str, m: int, max_order: int = RAMSEY_MAX_ORDER,
                   workers: int = 1) -> VerificationReport:
    """Exact R(K_{2,n}, C_m) or R(K_{2,n}, C_{m,m+1}) in one walk of the
    generation tree.

    The tree holds the K_{2,n}-free graphs whose complement has no target
    cycle (C_m, and C_{m+1} for the pair), a hereditary condition, up to
    ``max_order`` or order 64, the most a ``Graph`` holds.  The value is
    one more than the deepest order it reaches, with the least graph6 at
    that order as witness.  The hypothesis count is the number of
    isomorphism classes in the tree, over all orders.  A tree that
    reaches the top order brackets no value.
    """
    if kind not in ("cycle", "cycle_pair"):
        raise ParameterError(f"kind must be cycle or cycle_pair, got {kind!r}")
    params = {"n": n, "m": m, "kind": kind, "max_order": max_order}
    start = time.monotonic()
    if n < 1 or m < 3:
        return _report("ramsey-exact", params, start, outcome="infeasible",
                       notes=("n >= 1 and m >= 3 required",))
    lowest = 1
    if max_order < lowest:
        return _report("ramsey-exact", params, start, outcome="infeasible",
                       notes=(f"max_order >= {lowest} required",))
    top = min(max_order, MAX_ORDER)
    flt = RamseyFilter(n, (m,) if kind == "cycle" else (m, m + 1))
    deepest = 0
    witness: str | None = None
    examined = 0
    for adj in enumerate_orders(lowest, top, flt, workers):
        examined += 1
        if len(adj) >= deepest:
            g6 = encode_graph6(Graph(len(adj), adj))
            if len(adj) > deepest or g6 < witness:
                deepest, witness = len(adj), g6
    if deepest < top:
        return _report("ramsey-exact", params, start, examined,
                       extra={"value": deepest + 1, "witness_graph6": witness},
                       outcome="verified")
    return _report("ramsey-exact", params, start, examined,
                   notes=(f"no refutation up to order {top}; "
                          "cannot bracket the value",),
                   extra={"witness_graph6": witness}, outcome="infeasible")
