"""Deterministic builders for the lower-bound witness graphs.

Each builder returns a ConstructionReport carrying both the *claimed*
properties of the construction and the *measured* values recomputed from
scratch by the invariants module, so a faulty construction becomes an
inspectable artifact rather than a silent error.

All witnesses share one shape: the complement Ḡ is an apex vertex joined to
a disjoint union of cliques (or, for the generic Burr witness, a plain
disjoint union of cliques).  The graph G reported is the K_{2,n}-free side;
Ḡ is the side avoiding the long cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import (
    Graph,
    GraphError,
    MAX_ORDER,
    complement,
    complete_graph,
    disjoint_union,
    empty_graph,
    encode_graph6,
    join,
)
from .invariants import (
    PatternParams,
    circumference,
    has_cycle_of_length,
    k2n_free,
    max_common_neighborhood,
)

#: Largest order at which reports measure exact complement circumference.
CIRCUMFERENCE_CUTOFF = 24


class ParameterError(GraphError):
    """A builder was called with parameters outside its valid range."""


@dataclass(frozen=True)
class ConstructionReport:
    """A constructed witness with claimed vs. independently measured values.

    ``claimed`` and ``measured`` share the keys ``order``,
    ``max_common_neighborhood``, ``complement_circumference`` and
    ``forbidden_cycle_length``.  The last one is the length L such that the
    complement must contain no C_L; its measured value is L when the cycle
    is indeed absent and None when a C_L was found.  Keys listed in
    ``skipped`` were not measured (order above CIRCUMFERENCE_CUTOFF) and do
    not count toward failure.  ``checks`` holds named boolean side
    conditions (freeness, inequality bounds) that must all be True.
    """

    name: str
    params: dict[str, int]
    graph: Graph
    complement_graph: Graph
    claimed: dict[str, int | None]
    measured: dict[str, int | None]
    checks: dict[str, bool] = field(default_factory=dict)
    skipped: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        for key, want in self.claimed.items():
            if key in self.skipped or want is None:
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


def _apex_over_cliques(sizes: list[int]) -> Graph:
    """K_1 joined to a disjoint union of cliques of the given sizes."""
    body = complete_graph(sizes[0])
    for s in sizes[1:]:
        body = disjoint_union(body, complete_graph(s))
    return join(empty_graph(1), body)


def _measure(
    g: Graph,
    gbar: Graph,
    claimed: dict[str, int | None],
) -> tuple[dict[str, int | None], tuple[str, ...]]:
    measured: dict[str, int | None] = {"order": g.order}
    skipped: list[str] = []
    measured["max_common_neighborhood"] = max_common_neighborhood(g)
    if g.order <= CIRCUMFERENCE_CUTOFF:
        measured["complement_circumference"] = circumference(gbar)
    else:
        measured["complement_circumference"] = None
        skipped.append("complement_circumference")
    length = claimed.get("forbidden_cycle_length")
    if length is None:
        measured["forbidden_cycle_length"] = None
        skipped.append("forbidden_cycle_length")
    else:
        measured["forbidden_cycle_length"] = (
            length if has_cycle_of_length(gbar, length) is None else None
        )
    return measured, tuple(skipped)


def star_witness(m: int) -> ConstructionReport:
    """G = K_{1,m-1} on m vertices; Ḡ = K_{m-1} ∪ K_1.

    G is K_{2,n}-free for every n >= 2 (any two vertices share at most one
    neighbor) while Ḡ contains neither C_m nor C_{m+1}, witnessing
    R(K_{2,n}, C_{m,m+1}) > m.
    """
    if m < 3:
        raise ParameterError(f"star witness requires m >= 3, got m={m}")
    gbar = disjoint_union(complete_graph(m - 1), empty_graph(1))
    g = complement(gbar)
    claimed: dict[str, int | None] = {
        "order": m,
        "max_common_neighborhood": 1,
        "complement_circumference": m - 1 if m >= 4 else 0,
        "forbidden_cycle_length": m,
    }
    measured, skipped = _measure(g, gbar, claimed)
    checks = {
        "k2n_free_n2": k2n_free(g, 2),
        "no_forbidden_cycle_plus_one": has_cycle_of_length(gbar, m + 1) is None,
    }
    return ConstructionReport(
        name="star",
        params={"m": m},
        graph=g,
        complement_graph=gbar,
        claimed=claimed,
        measured=measured,
        checks=checks,
        skipped=skipped,
        notes=(f"complement also avoids C_{m + 1}",),
    )


def burr_witness(g_order: int, pattern: PatternParams) -> ConstructionReport:
    """Generic chromatic lower-bound witness for a connected graph of
    ``g_order`` vertices versus the given pattern.

    The complement (red side) is chi(pattern)-1 cliques K_{g_order-1} plus
    a clique K_{sigma-1}: it has no connected subgraph on g_order vertices,
    hence no C_{g_order}.  The graph itself (blue side) is complete
    multipartite and contains no pattern.  Total order is
    (g_order-1)(chi-1) + sigma - 1, one below Burr's bound.
    """
    chi, sigma = pattern.chi, pattern.sigma
    if g_order < sigma:
        raise ParameterError(
            f"g_order must be >= sigma(pattern) = {sigma}, got {g_order}"
        )
    total = (g_order - 1) * (chi - 1) + sigma - 1
    if total > MAX_ORDER:
        raise ParameterError(f"total order {total} exceeds {MAX_ORDER}")
    red = complete_graph(g_order - 1)
    for _ in range(chi - 2):
        red = disjoint_union(red, complete_graph(g_order - 1))
    if sigma > 1:
        red = disjoint_union(red, complete_graph(sigma - 1))
    blue = complement(red)
    clique_sizes = [g_order - 1] * (chi - 1) + ([sigma - 1] if sigma > 1 else [])
    red_circ = max((s for s in clique_sizes if s >= 3), default=0)
    claimed: dict[str, int | None] = {
        "order": total,
        "max_common_neighborhood": None,
        "complement_circumference": red_circ,
        "forbidden_cycle_length": g_order if g_order >= 3 else None,
    }
    if pattern.kind == "k2n":
        # blue is a star K_{1,g_order-1}: leaf pairs share only the center
        claimed["max_common_neighborhood"] = 1 if g_order >= 3 else 0
    measured, skipped = _measure(blue, red, claimed)
    if claimed["max_common_neighborhood"] is None:
        skipped = skipped + ("max_common_neighborhood",)
    largest_component = max(clique_sizes, default=0)
    checks = {"red_components_below_g_order": largest_component <= g_order - 1}
    if pattern.kind == "k2n":
        checks["pattern_absent"] = k2n_free(blue, pattern.size)
    else:
        checks["pattern_absent"] = has_cycle_of_length(blue, pattern.size) is None
    return ConstructionReport(
        name="burr",
        params={"g_order": g_order, "chi": chi, "sigma": sigma,
                "pattern_size": pattern.size},
        graph=blue,
        complement_graph=red,
        claimed=claimed,
        measured=measured,
        checks=checks,
        skipped=skipped,
        notes=(f"pattern kind {pattern.kind}",
               f"lower bound witnessed: R > {total}"),
    )


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
    gbar = _apex_over_cliques([m + t - p] + [m + 1] * p)
    g = complement(gbar)
    claimed: dict[str, int | None] = {
        "order": total,
        "max_common_neighborhood": n - 1,
        "complement_circumference": m + t - p + 1,
        "forbidden_cycle_length": 2 * m,
    }
    measured, skipped = _measure(g, gbar, claimed)
    mc = measured["max_common_neighborhood"]
    checks = {
        "k2n_free": k2n_free(g, n),
        "max_common_equals_claim": mc == n - 1,
        "max_common_at_most_n_minus_1": mc is not None and mc <= n - 1,
        "circumference_below_2m": m + t - p + 1 < 2 * m,
    }
    return ConstructionReport(
        name="lemma41",
        params={"m": m, "p": p, "t": t, "n": n},
        graph=g,
        complement_graph=gbar,
        claimed=claimed,
        measured=measured,
        checks=checks,
        skipped=skipped,
        notes=(f"witnesses R(K_2,{n}, C_{2 * m}) > {total}",),
    )


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
    gbar = _apex_over_cliques(sizes)
    g = complement(gbar)
    expected_common = (total - 1) - min(sizes)
    claimed: dict[str, int | None] = {
        "order": total,
        "max_common_neighborhood": expected_common,
        "complement_circumference": max(2 * m - t - 1, m + 5),
        "forbidden_cycle_length": 2 * m,
    }
    measured, skipped = _measure(g, gbar, claimed)
    mc = measured["max_common_neighborhood"]
    checks = {
        "k2n_free": k2n_free(g, n),
        "max_common_at_most_n_minus_1": mc is not None and mc <= n - 1,
        "circumference_below_2m": max(2 * m - t - 1, m + 5) < 2 * m,
    }
    return ConstructionReport(
        name="lemma42",
        params={"m": m, "q": q, "t": t, "n": n},
        graph=g,
        complement_graph=gbar,
        claimed=claimed,
        measured=measured,
        checks=checks,
        skipped=skipped,
        notes=(f"witnesses R(K_2,{n}, C_{2 * m}) > {total}",),
    )


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
