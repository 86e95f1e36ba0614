"""Deterministic ordered bases of forest diagram spaces.

The single-Y basis is closed-form: one Y per color triple and one strut
per strut type, written directly as canonical encodings.  The full
space is generated by brute force: every unitrivalent tree shape is
grown by leaf insertion, colored in all mode-legal ways, canonicalized,
and deduplicated, so completeness rests only on the canonical form.
Forests are multisets of nonzero trees split by degree partition.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from .diagrams import (
    CanonicalDiagram,
    Diagram,
    Mode,
    TreeComponent,
    _SEP_BYTE,
    canonicalize_component,
    check_num_colors,
    decode_component,
    decode_diagram,
    strut_encoding,
    y_encoding,
)
from .errors import CapacityError, DomainError

DEFAULT_MAX_ELEMENTS = 5_000_000


@dataclass(frozen=True)
class BasisSpec:
    """Which space a basis spans: the single-Y subspace with ``param``
    struts, or the full space of forests of degree ``param``."""

    mode: Mode
    k: int
    space: str  # "y" or "full"
    param: int

    def __post_init__(self) -> None:
        check_num_colors(self.k)
        if self.space not in ("y", "full"):
            raise DomainError(f"space must be 'y' or 'full', got {self.space!r}")
        if self.space == "y" and self.param < 0:
            raise DomainError("strut count must be >= 0")
        if self.space == "full" and self.param < 1:
            raise DomainError("degree must be >= 1")


@dataclass(frozen=True)
class Basis:
    """Ordered basis elements (all sign +1 representatives) plus the
    encoding -> column index map."""

    spec: BasisSpec
    elements: tuple[CanonicalDiagram, ...]
    index: dict[bytes, int] = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.elements)

    def diagram(self, col: int) -> Diagram:
        """Concrete representative of column ``col``."""
        return decode_diagram(self.elements[col].encoding, self.spec.mode, self.spec.k)


def _tree_shapes(num_leaves: int) -> list[dict[int, list[int]]]:
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


def _colorings(k: int, num_leaves: int, mode: Mode) -> Iterator[tuple[int, ...]]:
    colors = range(1, k + 1)
    if mode is Mode.HOMOTOPY:
        return itertools.permutations(colors, num_leaves)
    return itertools.product(colors, repeat=num_leaves)


@lru_cache(maxsize=None)
def tree_components(k: int, deg: int, mode: Mode) -> tuple[TreeComponent, ...]:
    """Concrete canonical representatives of all nonzero trees of one
    degree, in encoding order."""
    check_num_colors(k)
    if deg < 1:
        raise DomainError(f"tree degree must be >= 1, got {deg}")
    num_leaves = deg + 1
    shapes = _tree_shapes(num_leaves)
    encodings = set()
    for shape in shapes:
        n_verts = len(shape)
        adj = tuple(tuple(shape[v]) for v in range(n_verts))
        for coloring in _colorings(k, num_leaves, mode):
            colors = coloring + (0,) * (n_verts - num_leaves)
            comp = TreeComponent(adj, colors)
            enc, sign = canonicalize_component(comp, mode)
            if sign != 0:
                encodings.add(enc)
    return tuple(decode_component(enc) for enc in sorted(encodings))


def _strut_pairs(k: int, mode: Mode) -> list[tuple[int, int]]:
    """End colors (i, j), i <= j, of every nonzero strut in encoding order
    (the order of ``tree_components(k, 1, mode)``); homotopy mode needs
    i < j."""
    gap = 1 if mode is Mode.HOMOTOPY else 0
    return [(i, j) for i in range(1, k + 1) for j in range(i + gap, k + 1)]


def enumerate_trees(k: int, deg: int, mode: Mode,
                    max_elements: int = DEFAULT_MAX_ELEMENTS) -> list[CanonicalDiagram]:
    """All nonzero single-component diagrams of the given degree."""
    comps = tree_components(k, deg, mode)
    if len(comps) > max_elements:
        raise CapacityError(f"{len(comps)} trees exceed the cap {max_elements}")
    return [CanonicalDiagram(canonicalize_component(c, mode)[0], 1) for c in comps]


def _partitions(d: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Non-increasing partitions of d."""
    if d == 0:
        yield ()
        return
    first = d if largest is None else min(d, largest)
    for part in range(first, 0, -1):
        for rest in _partitions(d - part, part):
            yield (part,) + rest


def forests(k: int, d: int, mode: Mode) -> Iterator[tuple[TreeComponent, ...]]:
    """All multisets of nonzero trees with total degree ``d`` (degree 0
    yields the empty forest), components sorted by encoding."""
    if d == 0:
        yield ()
        return
    for partition in _partitions(d):
        sizes: dict[int, int] = {}
        for part in partition:
            sizes[part] = sizes.get(part, 0) + 1
        pools = []
        for deg in sorted(sizes, reverse=True):
            comps = tree_components(k, deg, mode)
            if not comps:
                pools = None
                break
            pools.append(itertools.combinations_with_replacement(comps, sizes[deg]))
        if pools is None:
            continue
        for choice in itertools.product(*pools):
            yield tuple(itertools.chain.from_iterable(choice))


def _component_encoding(comp: TreeComponent, mode: Mode) -> bytes:
    return canonicalize_component(comp, mode)[0]


def forest_encoding(components: tuple[TreeComponent, ...], mode: Mode) -> bytes:
    return _SEP_BYTE.join(sorted(_component_encoding(c, mode) for c in components))


def _build_basis(spec: BasisSpec, encodings: Iterable[bytes]) -> Basis:
    ordered = tuple(CanonicalDiagram(enc, 1) for enc in sorted(encodings))
    index = {cd.encoding: i for i, cd in enumerate(ordered)}
    return Basis(spec, ordered, index)


def enumerate_basis(k: int, d: int, mode: Mode,
                    max_elements: int = DEFAULT_MAX_ELEMENTS) -> Basis:
    """Ordered basis of all nonzero forests of total degree ``d``."""
    spec = BasisSpec(mode, k, "full", d)
    encodings: set[bytes] = set()
    for forest in forests(k, d, mode):
        encodings.add(forest_encoding(forest, mode))
        if len(encodings) > max_elements:
            raise CapacityError(f"basis exceeds the cap {max_elements}")
    return _build_basis(spec, encodings)


def enumerate_y_basis(k: int, n: int, mode: Mode,
                      max_elements: int = DEFAULT_MAX_ELEMENTS) -> Basis:
    """Ordered basis of diagrams with one Y-component and ``n`` struts.

    A nonzero Y has three distinct colors, so the basis is every color
    triple's Y next to every multiset of ``n`` strut types, built from the
    closed-form encodings; the capacity guard is the exact count.
    """
    spec = BasisSpec(mode, k, "y", n)
    if mode is Mode.HOMOTOPY and k < 3:
        raise DomainError("the homotopy Y-subspace needs k >= 3")
    size = math.comb(k, 3) * math.comb(strut_type_count(k, mode) + n - 1, n)
    if size > max_elements:
        raise CapacityError(f"{size} basis elements exceed the cap {max_elements}")
    ys = [y_encoding(*colors)[0] for colors in itertools.combinations(range(1, k + 1), 3)]
    struts = [strut_encoding(i, j) for i, j in _strut_pairs(k, mode)]
    return _build_basis(spec, [
        _SEP_BYTE.join(sorted([y, *rest]))
        for y in ys for rest in itertools.combinations_with_replacement(struts, n)])


def strut_type_count(k: int, mode: Mode) -> int:
    """Number of nonzero struts on k colors: C(k, 2), plus the k
    one-color struts in concordance mode."""
    return math.comb(k, 2) + (k if mode is Mode.CONCORDANCE else 0)


def strut_union_count(k: int, d: int, mode: Mode) -> int:
    """Number of degree-d multisets of struts: the quotient dimension
    expected when nothing but strut unions survives the relations."""
    check_num_colors(k)
    if d < 0:
        raise DomainError(f"degree must be >= 0, got {d}")
    return math.comb(strut_type_count(k, mode) + d - 1, d)
