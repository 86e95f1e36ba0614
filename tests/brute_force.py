"""Brute-force oracles for the fast paths in ``strutforge``.

Tree enumeration, the oracle for the rooted-expression generator in
``strutforge.bases``: every unitrivalent tree shape is grown by leaf
insertion, colored in all mode-legal ways, canonicalized and
deduplicated, so completeness rests only on the canonical form.

Full-space relation rows, the oracle for ``link_relations``,
``ihx_relations`` and ``count_ihx_instances`` in ``strutforge.relations``:
every link configuration is grafted term by term with
``PreGraftConfig`` on concrete forests, and every IHX row rewires the
decoded basis diagrams, each term canonicalized as a whole diagram.

Echelon pivot order, the oracle for the heap pivot queue of
``strutforge.linalg._echelon_block``: every pivot is the minimum over a
scan of all live rows.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from strutforge import bases
from strutforge.diagrams import (
    MARKED_COLOR,
    Diagram,
    Mode,
    TreeComponent,
    canonicalize,
    canonicalize_component,
    decode_component,
    render_component,
)
from strutforge.errors import DomainError
from strutforge.relations import (
    PreGraftConfig,
    RelationRow,
    ihx_instances,
    marked_trees,
)


def tree_shapes(num_leaves: int) -> list[dict[int, list[int]]]:
    """All unitrivalent tree shapes on leaves 0..num_leaves-1.

    Grown by subdividing an edge with a new trivalent vertex carrying the
    next leaf; internal ids start at num_leaves.  The neighbor list order
    at each trivalent vertex fixes one orientation per shape (the flipped
    classes are the negatives, absorbed by canonicalization).
    """
    if num_leaves < 2:
        raise DomainError("a tree needs at least two leaves")
    trees: list[dict[int, list[int]]] = [{0: [1], 1: [0]}]
    for leaf in range(2, num_leaves):
        w = num_leaves + (leaf - 2)
        grown = []
        for adj in trees:
            edges = [(u, v) for u in adj for v in adj[u] if u < v]
            for u, v in edges:
                new = {x: list(ns) for x, ns in adj.items()}
                new[u] = [w if x == v else x for x in new[u]]
                new[v] = [w if x == u else x for x in new[v]]
                new[w] = [u, v, leaf]
                new[leaf] = [w]
                grown.append(new)
        trees = grown
    return trees


def colorings(k: int, num_leaves: int, mode: Mode) -> Iterator[tuple[int, ...]]:
    colors = range(1, k + 1)
    if mode is Mode.HOMOTOPY:
        return itertools.permutations(colors, num_leaves)
    return itertools.product(colors, repeat=num_leaves)


def colored_trees(k: int, deg: int, mode: Mode) -> Iterator[TreeComponent]:
    """Every tree shape in every mode-legal leaf coloring."""
    num_leaves = deg + 1
    for shape in tree_shapes(num_leaves):
        n_verts = len(shape)
        adj = tuple(tuple(shape[v]) for v in range(n_verts))
        for coloring in colorings(k, num_leaves, mode):
            colors = coloring + (0,) * (n_verts - num_leaves)
            yield TreeComponent(adj, colors)


def tree_components(k: int, deg: int, mode: Mode) -> tuple[TreeComponent, ...]:
    """Canonical representatives of all nonzero trees of one degree, in
    encoding order."""
    encodings = set()
    for comp in colored_trees(k, deg, mode):
        enc, sign = canonicalize_component(comp, mode)
        if sign != 0:
            encodings.add(enc)
    return tuple(decode_component(enc) for enc in sorted(encodings))


def marked_tree_key(comp: TreeComponent, leg: int) -> tuple[int, bytes]:
    """(leg color, concordance encoding with the leg recolored to the
    reserved marked color): equal exactly for isomorphic marked trees.
    The encoding is empty when the marked tree equals its own negative."""
    recolored = comp.with_color(leg, MARKED_COLOR)
    enc, sign = canonicalize_component(recolored, Mode.CONCORDANCE)
    return comp.colors[leg], enc if sign else b""


def marked_trees(k: int, deg: int, mode: Mode) -> tuple[tuple[TreeComponent, int], ...]:
    """All nonzero (tree, marked leaf) configurations of one degree, one
    per isomorphism class of the marked tree, sorted by marked_tree_key."""
    seen: dict[tuple[int, bytes], tuple[TreeComponent, int]] = {}
    for comp in colored_trees(k, deg, mode):
        for leg in range(deg + 1):
            key = marked_tree_key(comp, leg)
            if key[1]:
                seen.setdefault(key, (comp, leg))
    return tuple(seen[key] for key in sorted(seen))


def forests(k: int, d: int, mode: Mode) -> Iterator[tuple[TreeComponent, ...]]:
    """Multisets of nonzero trees of total degree ``d`` in the order of
    ``strutforge.bases.forest_encodings``: partitions of ``d``, components
    by decreasing degree, encoding order within a degree."""
    if d == 0:
        yield ()
        return
    for partition in bases._partitions(d):
        sizes: dict[int, int] = {}
        for part in partition:
            sizes[part] = sizes.get(part, 0) + 1
        pools = [itertools.combinations_with_replacement(
                     bases.tree_components(k, deg, mode), sizes[deg])
                 for deg in sorted(sizes, reverse=True)]
        for choice in itertools.product(*pools):
            yield tuple(itertools.chain.from_iterable(choice))


def dedup_rows(rows) -> list[RelationRow]:
    """Sign-normalized nonzero rows sorted by entries, first provenance
    kept."""
    seen: dict[tuple, RelationRow] = {}
    for row in rows:
        if row.entries:
            norm = row.normalized()
            seen.setdefault(norm.entries, norm)
    return [seen[key] for key in sorted(seen)]


def link_rows(k: int, d: int, mode: Mode, basis) -> list[RelationRow]:
    """Link rows by grafting: one PreGraftConfig per (marked tree, rest
    forest), each term a concrete graft canonicalized as a diagram."""
    def configs():
        for dm in range(1, d + 1):
            rest_forests = list(forests(k, d - dm, mode))
            for m_comp, m_leg in marked_trees(k, dm, mode):
                for rest in rest_forests:
                    yield PreGraftConfig(rest, m_comp, m_leg).relation_row(basis, mode, k)
    return dedup_rows(configs())


def _signed_row(basis, weighted: list[tuple[Diagram, int]], provenance: str) -> RelationRow:
    coeffs: dict[int, int] = {}
    for diag, weight in weighted:
        cd = canonicalize(diag)
        if cd.sign:
            col = basis.index[cd.encoding]
            coeffs[col] = coeffs.get(col, 0) + weight * cd.sign
    return RelationRow(tuple(sorted((c, v) for c, v in coeffs.items() if v)), provenance)


def ihx_rows(k: int, d: int, mode: Mode, basis) -> list[RelationRow]:
    """IHX rows on decoded diagrams: each internal edge of each component
    rewired into I - H + X next to the diagram's other components."""
    def rows():
        for col in range(len(basis)):
            diag = basis.diagram(col)
            for idx, comp in enumerate(diag.components):
                others = diag.components[:idx] + diag.components[idx + 1:]
                for term_i, term_h, term_x in ihx_instances(comp):
                    yield _signed_row(basis, [
                        (Diagram(others + (term_i,), mode, k), 1),
                        (Diagram(others + (term_h,), mode, k), -1),
                        (Diagram(others + (term_x,), mode, k), 1),
                    ], f"ihx diagram#{col} component#{idx} edge {render_component(comp)}")
    return dedup_rows(rows())


def ihx_instance_count(basis) -> int:
    """Internal edges over all decoded basis diagrams."""
    return sum(len(comp.internal_edges())
               for col in range(len(basis))
               for comp in basis.diagram(col).components)


def echelon_block_min_scan(rows: list[dict[int, int]], p: int) -> list[tuple[int, dict[int, int]]]:
    """``_echelon_block`` with each pivot picked by scanning every live
    row for the least (length, leading column, row id); updates ``rows``
    in place like the kernel does."""
    col_rows: dict[int, set[int]] = {}
    for rid, row in enumerate(rows):
        for col in row:
            col_rows.setdefault(col, set()).add(rid)
    alive = set(range(len(rows)))
    pivots = []
    while alive:
        rid = min(alive, key=lambda r: (len(rows[r]), min(rows[r]), r))
        alive.discard(rid)
        pivot_row = rows[rid]
        pc = min(pivot_row)
        inv = pow(pivot_row[pc], -1, p)
        pivot_row = {c: (v * inv) % p for c, v in pivot_row.items()}
        pivots.append((pc, pivot_row))
        for sid in list(col_rows.get(pc, ())):
            if sid == rid or sid not in alive:
                continue
            target = rows[sid]
            factor = target[pc]
            for c, v in pivot_row.items():
                new = (target.get(c, 0) - factor * v) % p
                if new:
                    if c not in target:
                        col_rows.setdefault(c, set()).add(sid)
                    target[c] = new
                elif c in target:
                    del target[c]
                    col_rows[c].discard(sid)
            if not target:
                alive.discard(sid)
    return pivots
