"""Brute-force tree enumeration: the oracle for the rooted-expression
generator in ``strutforge.bases``.

Every unitrivalent tree shape is grown by leaf insertion, colored in all
mode-legal ways, canonicalized and deduplicated, so completeness rests
only on the canonical form.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from strutforge.diagrams import (
    MARKED_COLOR,
    Mode,
    TreeComponent,
    canonicalize_component,
    decode_component,
)
from strutforge.errors import DomainError


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
