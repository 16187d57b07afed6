"""Canonical labeling by iterative refinement with backtracking.

Two graphs have equal canonical form iff they are isomorphic.  The search
individualizes vertices inside the first non-singleton cell of the refined
partition and keeps the lexicographically smallest packed adjacency matrix.
A leaf that ties with the best one gives an automorphism, and the search
then returns straight to the node where the two leaves' paths part; the
automorphisms found also prune sibling branches (McKay, "Practical graph
isomorphism", Congr. Numer. 30, 1981).  This keeps highly symmetric graphs
(cliques, unions of cliques, complete multipartite graphs) tractable.
"""

from __future__ import annotations

from collections.abc import Iterable


def _refine(adj: tuple[int, ...], cells: list[list[int]],
            splitters: list[int], stay: int = -1,
            settle: bool = False) -> list[list[int]]:
    """Stable equitable refinement of an ordered partition.

    Each round splits every cell by its vertices' neighbour counts in the
    splitters, masks in partition order, and sorts the fragments by those
    counts, the first splitter most significant; a cell that does not
    split keeps its order.  A key packs the counts into fixed 7-bit
    fields: a count is at most 63, so keys sort as the tuples of counts
    would.  The caller names the splitters of the first round: the cells
    of ``cells`` that may split its cells.  The unit partition's splitter
    is the whole vertex mask, so its first key is the degree; an equitable
    partition with v individualized has the one splitter ``1 << v``.

    Every later round's splitters are the fragments the last round split
    off, each split cell's last fragment left out (McKay and Piperno's
    splitter rule, with the last fragment in place of the largest).  This
    refines exactly as keying every vertex by its counts in every cell
    would.  Within one cell, every vertex has the same count in each cell
    that did not split, and the same total over the fragments of each cell
    that did, so its count in a last fragment follows from its counts in
    the fragments before it.  Two such full tuples therefore first differ
    at a position that is kept, and the shorter keys group and order the
    vertices of a cell as the full ones do.

    A caller that asks only whether the vertex ``stay`` ends in the last
    cell names it, and the refinement returns as soon as a round leaves
    ``stay`` outside the last cell: cells only split in place, so it never
    comes back.  A caller that asks only whether ``stay`` is outside the
    last cell, alone in it or sharing it also passes ``settle``, and the
    refinement then returns as soon as ``stay`` is alone in the last cell:
    a singleton cell never splits, so ``stay`` stays alone and last.  Only
    in these two cases is the partition returned not the full refinement.
    """
    while splitters and (stay < 0 or stay in cells[-1]
                         and not (settle and len(cells[-1]) == 1)):
        split: list[int] = []
        new_cells: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            keyed: dict[int, list[int]] = {}
            for v in cell:
                row = adj[v]
                key = 0
                for m in splitters:
                    key = key << 7 | (row & m).bit_count()
                keyed.setdefault(key, []).append(v)
            if len(keyed) == 1:  # a cell that does not split needs no sort
                new_cells.append(cell)
                continue
            keys = sorted(keyed)
            for key in keys:
                new_cells.append(keyed[key])
            for key in keys[:-1]:
                m = 0
                for v in keyed[key]:
                    m |= 1 << v
                split.append(m)
        cells = new_cells
        splitters = split
    return cells


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
    adj: tuple[int, ...], base: list[list[int]] | None = None
) -> tuple[tuple[int, ...], bytes, list[tuple[int, ...]]]:
    """Return (perm, form, automorphism generators) of the graph g on n
    vertices whose neighbour bitmasks are ``adj``, as ``Graph.adj`` holds
    them.

    ``perm[i]`` is the original vertex placed at canonical position i.
    ``form`` is equal across all graphs isomorphic to g and only those.
    The generators are the automorphisms that map the best leaf to each
    later leaf with the same form.

    Such an automorphism γ maps the best leaf's path of individualized
    vertices onto the tying leaf's, node by node: each node individualizes
    in the first non-singleton cell, and refinement commutes with γ.  So
    below the node at depth k, where the two paths part, the child on the
    tying leaf's path roots the γ-image of a subtree already searched, and
    the search returns straight to depth k, leaving that child's other
    branches (McKay's rule, "Practical graph isomorphism", 1981).  A
    sibling in the orbit of a tried vertex under the generators fixing its
    node is skipped likewise.  Every skipped leaf is thus the image of an
    earlier leaf under the group found so far, so the generators generate
    all of Aut(g), and the first leaf in search order with the least form,
    which gives ``perm``, is never skipped.

    The search starts from ``base``, the refined unit partition
    ``_refine(adj, [list(range(n))], [(1 << n) - 1])``, which a caller
    that has it already passes: ``enumeration._children`` hands each child
    it refines but does not label on with its ``base``, and the child is
    labeled from it where it is expanded, so no graph's unit partition is
    refined twice.  Individualization and refinement only split its cells
    in place, so ``perm[-1]`` lies in its last cell, a union of
    Aut(g)-orbits.  Refinement first splits the unit partition into degree
    cells, ascending, so ``perm[-1]`` has maximum degree in g.
    ``enumeration._children`` relies on both to settle extensions before
    labeling them.
    """
    n = len(adj)
    if base is None:
        base = _refine(adj, [list(range(n))], [(1 << n) - 1])

    best_form: bytes | None = None
    best_perm: tuple[int, ...] | None = None
    auts: list[tuple[int, ...]] = []
    path: list[int] = []  # the vertices individualized, in order
    best_path: list[int] = []

    def rec(cells: list[list[int]]) -> int:
        """Search below the node of ``path``; return the depth to resume
        at, this node's own unless a tying leaf sends the search back."""
        nonlocal best_form, best_perm, best_path
        depth = len(path)
        idx = -1
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                idx = i
                break
        if idx < 0:
            perm = tuple(cell[0] for cell in cells)
            form = _pack(adj, perm, n)
            if best_form is None or form < best_form:
                best_form, best_perm, best_path = form, perm, path.copy()
            elif form == best_form:
                # a leaf other than the best one, so not the identity
                aut = [0] * n
                for a, b in zip(best_perm, perm):
                    aut[a] = b
                auts.append(tuple(aut))
                # back to where the paths part, of equal length under aut
                return next(i for i, (a, b) in enumerate(zip(path, best_path))
                            if a != b)
            return depth
        fixed = [cell[0] for cell in cells if len(cell) == 1]
        cell = cells[idx]
        tried: list[int] = []
        # fixing: those of the first ``checked`` discovered automorphisms
        # that fix the prefix; a sibling's search only appends to ``auts``
        fixing: list[tuple[int, ...]] = []
        checked = 0
        for v in cell:
            # skip v in the orbit of a tried vertex under those
            if tried:
                fixing += [a for a in auts[checked:]
                           if all(a[f] == f for f in fixed)]
                checked = len(auts)
                if v in orbit_closure(tried, fixing):
                    continue
            tried.append(v)
            rest = [w for w in cell if w != v]
            path.append(v)
            # cells is equitable, so only v can split a cell
            back = rec(_refine(adj, cells[:idx] + [[v], rest] + cells[idx + 1:],
                               [1 << v]))
            path.pop()
            if back < depth:
                return back
        return depth

    rec(base)
    assert best_perm is not None
    return best_perm, best_form, auts
