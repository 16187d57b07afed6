"""Deterministic builders for the lower-bound witness graphs.

Each builder returns a ConstructionReport carrying both the *claimed*
properties of the construction and the *measured* values recomputed from
scratch by the invariants module, so a faulty construction becomes an
inspectable artifact rather than a silent error.

All witnesses share one shape: the complement Ḡ is an apex vertex joined to
a disjoint union of cliques (or, for the generic Burr witness, a plain
disjoint union of cliques).  The graph G reported is the K_{2,n}-free side;
Ḡ is the side avoiding the long cycle.  A builder states Ḡ, its claims,
its side conditions and its notes; one step (``_report``) measures and
assembles every report.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable

from .graphs import (  # ParameterError is re-exported for the builders' callers
    Graph,
    MAX_ORDER,
    ParameterError,
    complement,
    complete_graph,
    disjoint_union,
    empty_graph,
    encode_graph6,
    join,
)
from .invariants import (
    circumference,
    has_cycle_of_length,
    k2n_free,
    max_common_neighborhood,
)

#: Largest order at which reports measure exact complement circumference.
CIRCUMFERENCE_CUTOFF = 24


class ConstructionReport(namedtuple(
        "ConstructionReport", "name params graph complement_graph claimed "
        "measured checks skipped notes")):
    """The witness G (``graph``, with complement ``complement_graph``) that
    builder ``name`` made from ``params``, with claimed vs. independently
    measured values.

    ``claimed`` and ``measured`` share the keys ``order``,
    ``max_common_neighborhood``, ``complement_circumference`` and
    ``forbidden_cycle_length``.  The last one is the length L such that the
    complement must contain no C_L; its measured value is L when the cycle
    is indeed absent and None when a C_L was found.  Keys listed in
    ``skipped`` (claimed None, or the complement circumference at an order
    above CIRCUMFERENCE_CUTOFF) do not count toward failure.  ``checks``
    holds named boolean side conditions (freeness, inequality bounds) that
    must all be True.
    """

    __slots__ = ()

    @property
    def failed(self) -> bool:
        for key, want in self.claimed.items():
            if key in self.skipped:
                continue
            if self.measured.get(key) != want:
                return True
        return not all(self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            "construction": self.name,
            "params": dict(self.params),
            "graph6": encode_graph6(self.graph),
            "complement_graph6": encode_graph6(self.complement_graph),
            "order": self.graph.order,
            "claimed": dict(self.claimed),
            "measured": dict(self.measured),
            "checks": dict(self.checks),
            "skipped": list(self.skipped),
            "notes": list(self.notes),
            "failed": self.failed,
        }


def _clique_union(sizes: list[int]) -> Graph:
    """The disjoint union of cliques of the given sizes, in that order."""
    g = complete_graph(sizes[0])
    for s in sizes[1:]:
        g = disjoint_union(g, complete_graph(s))
    return g


def _apex_over_cliques(sizes: list[int]) -> Graph:
    """K_1 joined to a disjoint union of cliques of the given sizes."""
    return join(empty_graph(1), _clique_union(sizes))


def _report(
    name: str,
    params: dict[str, int],
    gbar: Graph,
    claimed: dict[str, int | None],
    checks: Callable[[Graph, int], dict[str, bool]],
    notes: tuple[str, ...],
) -> ConstructionReport:
    """The report on G = complement(gbar): every claimed key measured from
    scratch, and ``checks(g, mc)`` with G's measured largest common
    neighbourhood mc.  A key claimed None is skipped, and so is the
    complement circumference above CIRCUMFERENCE_CUTOFF; ``skipped`` lists
    them in key order."""
    g = complement(gbar)
    small = g.order <= CIRCUMFERENCE_CUTOFF
    mc = max_common_neighborhood(g.adj)
    length = claimed["forbidden_cycle_length"]
    measured: dict[str, int | None] = {
        "order": g.order,
        "max_common_neighborhood": mc,
        "complement_circumference": circumference(gbar.adj) if small else None,
        "forbidden_cycle_length": (
            length if length is not None
            and has_cycle_of_length(gbar.adj, length) is None else None),
    }
    skipped = tuple(key for key in sorted(claimed) if claimed[key] is None
                    or key == "complement_circumference" and not small)
    return ConstructionReport(name, params, g, gbar, claimed, measured,
                              checks(g, mc), skipped, notes)


def star_witness(m: int) -> ConstructionReport:
    """G = K_{1,m-1} on m vertices; Ḡ = K_{m-1} ∪ K_1.

    G is K_{2,n}-free for every n >= 2 (any two vertices share at most one
    neighbor) while Ḡ contains neither C_m nor C_{m+1}, witnessing
    R(K_{2,n}, C_{m,m+1}) > m.
    """
    if not 3 <= m <= MAX_ORDER:
        raise ParameterError(
            f"star witness requires 3 <= m <= {MAX_ORDER}, got m={m}")
    gbar = _clique_union([m - 1, 1])
    claimed: dict[str, int | None] = {
        "order": m,
        "max_common_neighborhood": 1,
        "complement_circumference": m - 1 if m >= 4 else 0,
        "forbidden_cycle_length": m,
    }
    return _report("star", {"m": m}, gbar, claimed, lambda g, mc: {
        "k2n_free_n2": k2n_free(g.adj, 2),
        "no_forbidden_cycle_plus_one": has_cycle_of_length(gbar.adj, m + 1) is None,
    }, (f"complement also avoids C_{m + 1}",))


def burr_witness(g_order: int, kind: str, size: int) -> ConstructionReport:
    """Generic chromatic lower-bound witness for a connected graph of
    ``g_order`` vertices versus the pattern C_size (``kind`` "cycle") or
    K_{2,size} (``kind`` "k2n").

    The complement (red side) is chi(pattern)-1 cliques K_{g_order-1} plus
    a clique K_{sigma-1}: it has no connected subgraph on g_order vertices,
    hence no C_{g_order}.  The graph itself (blue side) is complete
    multipartite and contains no pattern.  Total order is
    (g_order-1)(chi-1) + sigma - 1, one below Burr's bound.  chi is the
    pattern's chromatic number and sigma its least colour class over
    proper chi-colourings: 2 and 2 for K_{2,n}, 2 and m/2 for even C_m,
    3 and 1 for odd C_m.
    """
    if kind == "k2n":
        if size < 2:
            raise ParameterError("K_{2,n} goodness arithmetic requires n >= 2")
        chi, sigma = 2, 2
    elif kind == "cycle":
        if size < 3:
            raise ParameterError("cycle length must be >= 3")
        chi, sigma = (2, size // 2) if size % 2 == 0 else (3, 1)
    else:
        raise ParameterError(f"unknown pattern kind {kind!r}")
    if g_order < sigma:
        raise ParameterError(
            f"g_order must be >= sigma(pattern) = {sigma}, got {g_order}"
        )
    total = (g_order - 1) * (chi - 1) + sigma - 1
    if total < 1:  # an odd cycle with g_order 1 would give K_0
        raise ParameterError(
            f"g_order {g_order} gives total order {total} for this pattern; "
            f"need a total order >= 1"
        )
    if total > MAX_ORDER:
        raise ParameterError(f"total order {total} exceeds {MAX_ORDER}")
    clique_sizes = [g_order - 1] * (chi - 1) + ([sigma - 1] if sigma > 1 else [])
    claimed: dict[str, int | None] = {
        "order": total,
        "max_common_neighborhood": None,
        "complement_circumference": max((s for s in clique_sizes if s >= 3),
                                        default=0),
        "forbidden_cycle_length": g_order if g_order >= 3 else None,
    }
    if kind == "k2n":
        # blue is a star K_{1,g_order-1}: leaf pairs share only the center
        claimed["max_common_neighborhood"] = 1 if g_order >= 3 else 0

    def checks(blue: Graph, mc: int) -> dict[str, bool]:
        if kind == "k2n":
            absent = k2n_free(blue.adj, size)
        else:
            absent = has_cycle_of_length(blue.adj, size) is None
        return {"red_components_below_g_order":
                max(clique_sizes, default=0) <= g_order - 1,
                "pattern_absent": absent}

    return _report("burr", {"g_order": g_order, "chi": chi, "sigma": sigma,
                            "pattern_size": size},
                   _clique_union(clique_sizes), claimed, checks,
                   (f"pattern kind {kind}",
                    f"lower bound witnessed: R > {total}"))


def lemma41_witness(m: int, p: int, t: int) -> ConstructionReport:
    """Ḡ = K_1 ∨ (K_{m+t-p} ∪ p·K_{m+1}) on (p+1)m + t + 1 vertices.

    With n = pm + t this shows R(K_{2,n}, C_{2m}) > n + m + 1: the
    complement's circumference is m+t-p+1 < 2m and G's largest common
    neighborhood is pm+t-1, i.e. G is K_{2,n}-free.
    """
    if p < 1:
        raise ParameterError(f"p >= 1 required, got p={p}")
    if t < p + 1:
        raise ParameterError(f"t >= p+1 required, got t={t}, p={p}")
    if t >= m + p - 1:
        raise ParameterError(f"t < m+p-1 required, got t={t}, m={m}, p={p}")
    total = (p + 1) * m + t + 1
    if total > MAX_ORDER:
        raise ParameterError(f"total order {total} exceeds {MAX_ORDER}")
    n = p * m + t
    claimed: dict[str, int | None] = {
        "order": total,
        "max_common_neighborhood": n - 1,
        "complement_circumference": m + t - p + 1,
        "forbidden_cycle_length": 2 * m,
    }
    return _report("lemma41", {"m": m, "p": p, "t": t, "n": n},
                   _apex_over_cliques([m + t - p] + [m + 1] * p), claimed,
                   lambda g, mc: {
                       "k2n_free": k2n_free(g.adj, n),
                       "max_common_equals_claim": mc == n - 1,
                       "max_common_at_most_n_minus_1": mc <= n - 1,
                       "circumference_below_2m": m + t - p + 1 < 2 * m,
                   }, (f"witnesses R(K_2,{n}, C_{2 * m}) > {total}",))


def lemma42_witness(m: int, q: int, t: int) -> ConstructionReport:
    """Ḡ = K_1 ∨ (K_{2m-t-2} ∪ K_{m+4} ∪ (q-2)·K_{m+1}) with n = q(m+1)-t.

    Requires m >= 6: at m = 5 the block K_1 ∨ K_{m+4} is K_10 and contains
    C_{2m} itself, so the construction is not a witness there.  The common
    neighborhood bound is the inequality max <= n-1 (equality can fail for
    q = 2), which is all K_{2,n}-freeness needs.
    """
    if q < 2:
        raise ParameterError(f"q >= 2 required, got q={q}")
    if t not in (0, 1, 2):
        raise ParameterError(f"t in {{0,1,2}} required, got t={t}")
    if m <= 5:
        raise ParameterError(
            f"m >= 6 required, got m={m}: K_1 joined to K_{m + 4} "
            f"would contain C_{2 * m}"
        )
    n = q * (m + 1) - t
    total = n + m + 1
    if total > MAX_ORDER:
        raise ParameterError(f"total order {total} exceeds {MAX_ORDER}")
    sizes = [2 * m - t - 2, m + 4] + [m + 1] * (q - 2)
    claimed: dict[str, int | None] = {
        "order": total,
        "max_common_neighborhood": (total - 1) - min(sizes),
        "complement_circumference": max(2 * m - t - 1, m + 5),
        "forbidden_cycle_length": 2 * m,
    }
    return _report("lemma42", {"m": m, "q": q, "t": t, "n": n},
                   _apex_over_cliques(sizes), claimed, lambda g, mc: {
                       "k2n_free": k2n_free(g.adj, n),
                       "max_common_at_most_n_minus_1": mc <= n - 1,
                       "circumference_below_2m":
                           max(2 * m - t - 1, m + 5) < 2 * m,
                   }, (f"witnesses R(K_2,{n}, C_{2 * m}) > {total}",))


def badness_parameter_cover(n: int, m: int) -> dict:
    """Which construction (if any) covers the pair (n, m).

    Returns a dict with ``construction`` in {"lemma41", "lemma42",
    "unknown", "uncovered"} plus the solved parameters.  The apex-over-
    cliques family needs n >= m+2: lemma42_witness (m >= 6 only) covers
    n = q(m+1)-t for t in {0,1,2}, lemma41_witness (smallest valid p)
    covers the rest of [m+2, infinity).  n in {m, m+1} is open; everything
    else is uncovered here.
    """
    if n < 1 or m < 1:
        raise ParameterError("n and m must be positive")
    if n in (m, m + 1):
        return {"construction": "unknown", "n": n, "m": m,
                "reason": "goodness open for n in {m, m+1}"}
    if n >= m + 2:
        # n = q(m+1) - t with t in {0, 1, 2} < m+1: t is -n mod m+1
        t = -n % (m + 1)
        q = (n + t) // (m + 1)
        if m >= 6 and t <= 2 and q >= 2:
            return {"construction": "lemma42", "n": n, "m": m, "q": q, "t": t}
        # n = pm + t: t < m+p-1 iff p > (n-m+1)/(m+1), and t >= p+1 iff
        # p(m+1)+1 <= n; the least p passing the first, if it passes both
        p = (n - m + 1) // (m + 1) + 1
        if p * (m + 1) + 1 <= n:
            return {"construction": "lemma41", "n": n, "m": m,
                    "p": p, "t": n - p * m}
    return {"construction": "uncovered", "n": n, "m": m,
            "reason": "no construction for these parameters"}
