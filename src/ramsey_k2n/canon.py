"""Canonical labeling by iterative refinement with backtracking.

Two graphs have equal canonical form iff they are isomorphic.  The search
individualizes vertices inside the first non-singleton cell of the refined
partition and keeps the lexicographically smallest packed adjacency matrix.
Automorphisms discovered when two branches tie are used to prune sibling
branches, which keeps highly symmetric graphs (cliques, unions of cliques,
complete multipartite graphs) tractable.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import Graph


def _refine(adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Stable equitable refinement of an ordered partition.

    A vertex's key packs its neighbour count in each cell, first cell
    most significant, into fixed 7-bit fields: a count is at most 63, so
    keys sort as the tuples of counts would.
    """
    while True:
        masks = [0] * len(cells)
        for i, cell in enumerate(cells):
            m = 0
            for v in cell:
                m |= 1 << v
            masks[i] = m
        new_cells: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            keyed: dict[int, list[int]] = {}
            for v in cell:
                row = adj[v]
                key = 0
                for m in masks:
                    key = key << 7 | (row & m).bit_count()
                keyed.setdefault(key, []).append(v)
            if len(keyed) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(keyed):
                    new_cells.append(keyed[key])
        if not changed:
            return new_cells
        cells = new_cells


def _pack(adj: tuple[int, ...], perm: tuple[int, ...], n: int) -> bytes:
    """Upper-triangle bits of the relabeled adjacency matrix, plus order."""
    word = 0
    for i in range(n):
        row = adj[perm[i]]
        for j in range(i + 1, n):
            word = (word << 1) | (row >> perm[j] & 1)
    nbits = n * (n - 1) // 2
    return bytes([n]) + word.to_bytes((nbits + 7) // 8 or 1, "big")


def orbit_closure(points: Iterable[int],
                  gens: list[tuple[int, ...]]) -> set[int]:
    """The union of the orbits of ``points`` under the group that the
    permutations ``gens`` generate."""
    closure = set(points)
    frontier = list(closure)
    while frontier:
        u = frontier.pop()
        for a in gens:
            w = a[u]
            if w not in closure:
                closure.add(w)
                frontier.append(w)
    return closure


def canonical_labeling(
    g: Graph, base: list[list[int]] | None = None
) -> tuple[tuple[int, ...], bytes, list[tuple[int, ...]]]:
    """Return (perm, form, automorphism generators).

    ``perm[i]`` is the original vertex placed at canonical position i.
    ``form`` is equal across all graphs isomorphic to g and only those.
    The generators are the automorphisms that map the best leaf to each
    later leaf with the same form, and they generate all of Aut(g): a
    pruned branch is the image of a searched one under earlier
    generators, so every leaf with the best form is an image of a
    searched one.

    The search starts from ``base``, the refined unit partition
    ``_refine(g.adj, [list(range(g.order))])``, which a caller that has
    it already may pass.  Individualization and refinement only split its
    cells in place, so ``perm[-1]`` lies in its last cell, a union of
    Aut(g)-orbits.  Refinement first splits the unit partition into degree
    cells, ascending, so ``perm[-1]`` has maximum degree in g.
    ``enumeration._children`` relies on both to settle extensions before
    labeling them.
    """
    n = g.order
    adj = g.adj
    if base is None:
        base = _refine(adj, [list(range(n))])

    best_form: bytes | None = None
    best_perm: tuple[int, ...] | None = None
    auts: list[tuple[int, ...]] = []

    def rec(cells: list[list[int]]) -> None:
        nonlocal best_form, best_perm
        idx = -1
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                idx = i
                break
        if idx < 0:
            perm = tuple(cell[0] for cell in cells)
            form = _pack(adj, perm, n)
            if best_form is None or form < best_form:
                best_form, best_perm = form, perm
            elif form == best_form:
                # a leaf other than the best one, so not the identity
                aut = [0] * n
                for a, b in zip(best_perm, perm):
                    aut[a] = b
                auts.append(tuple(aut))
            return
        fixed = [cell[0] for cell in cells if len(cell) == 1]
        cell = cells[idx]
        tried: list[int] = []
        for v in cell:
            # skip v in the orbit of a tried vertex under the discovered
            # automorphisms that fix the prefix
            if tried and v in orbit_closure(
                    tried, [a for a in auts if all(a[f] == f for f in fixed)]):
                continue
            tried.append(v)
            rest = [w for w in cell if w != v]
            rec(_refine(adj, cells[:idx] + [[v], rest] + cells[idx + 1:]))

    rec(base)
    assert best_perm is not None
    return best_perm, best_form, auts


def canonical_form(g: Graph) -> bytes:
    return canonical_labeling(g)[1]
