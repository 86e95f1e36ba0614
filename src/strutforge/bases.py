"""Deterministic ordered bases of forest diagram spaces.

Every basis is a slice of one forest space, named by a ``BasisSpec``: a
degree d and a component count.  A single-Y cell at n struts is the
slice of degree n + 2 with n + 1 components, whose forests are one Y
and n struts; a full cell is its degree with any component count.  Trees
are generated on encodings: a tree marked at one leaf is a leaf color
plus a canonical rooted expression built bottom-up from strictly ordered
sibling pairs, so marked trees need no dedup, and an unmarked tree is
its marked encoding at a least-colour leaf with the least expression.
Forests are multisets of nonzero trees, listed as tuples of component
encodings by one generator (``forest_encodings``); a basis element joins
them sorted.  The exact size and configuration count of a whole cell are
checked against the caps in one place (``check_cell``) before anything
is listed.

Both spaces split into blocks, one per leaf-colour multiset M (the
number of leaves of each colour over all components).  A block of
degree d has L = d + 1 (one tree) to 2d (all struts) leaves
and L - d components, so its trees have degree at most 2d - L + 1.  Its
forests take its trees of degree 2 and up group by group (by degree and
leaf vector), then the struts on the leaves left (``_strut_multisets``).  A
single-Y block at n struts is the degree-(n + 2) block on its 2n + 3
leaves.  A permutation of the
colours carries each block onto another, so ``leaf_orbits`` lists one
representative block per orbit with the orbit's size.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .diagrams import (
    CanonicalDiagram,
    Diagram,
    Mode,
    TreeComponent,
    _NODE_BYTE,
    canonicalize_component,
    check_num_colors,
    decode_component,
    decode_diagram,
    diagram_encoding,
)
from .errors import CapacityError, DomainError, Value, _set
from .records import DEFAULT_MAX_ELEMENTS


class BasisSpec(Value):
    """Which space a basis spans: the single-Y subspace with ``param``
    struts, or the full space of forests of degree ``param``; each is
    the slice of the forests of degree ``degree`` with ``components``
    trees.  A basis with ``leaves`` spans only the block of diagrams with
    that leaf-colour multiset: ``leaves[i - 1]`` leaves of colour i."""

    __slots__ = ("mode", "k", "space", "param", "leaves")
    mode: Mode
    k: int
    space: str  # "y" or "full"
    param: int
    leaves: Optional[tuple[int, ...]]

    def __init__(self, mode: Mode, k: int, space: str, param: int,
                 leaves: Optional[tuple[int, ...]] = None) -> None:
        _set(self, "mode", mode)
        _set(self, "k", k)
        _set(self, "space", space)
        _set(self, "param", param)
        _set(self, "leaves", leaves)
        check_num_colors(self.k)
        if self.space not in ("y", "full"):
            raise DomainError(f"space must be 'y' or 'full', got {self.space!r}")
        if self.space == "y" and self.param < 0:
            raise DomainError("strut count must be >= 0")
        if self.space == "full" and self.param < 1:
            raise DomainError("degree must be >= 1")
        if self.leaves is not None and (
                len(self.leaves) != self.k or min(self.leaves) < 0
                or sum(self.leaves) not in leaf_totals(self.space, self.param)):
            raise DomainError(
                f"leaves {self.leaves} is not a leaf multiset of this space")

    @property
    def degree(self) -> int:
        """Degree of the space's forests: n + 2 for a Y next to n struts."""
        return self.param + 2 if self.space == "y" else self.param

    @property
    def components(self) -> Optional[int]:
        """Components of each forest: n + 1 in a single-Y cell, L - d on
        a block of L leaves, any number (None) in a whole full cell."""
        if self.leaves is not None:
            return sum(self.leaves) - self.degree
        return self.param + 1 if self.space == "y" else None

    @property
    def largest_tree(self) -> int:
        """Largest degree a tree of the space's forests can have: the
        degree left when every other component is a strut."""
        return self.degree - (self.components or 1) + 1


class Basis(Value, compared=("spec", "elements"), shown=("spec", "elements")):
    """Ordered basis elements (all sign +1 representatives) plus the
    encoding -> column index map, which == and repr skip."""

    __slots__ = ("spec", "elements", "index")
    spec: BasisSpec
    elements: tuple[CanonicalDiagram, ...]
    index: dict[bytes, int]

    def __init__(self, spec: BasisSpec, elements: tuple[CanonicalDiagram, ...],
                 index: dict[bytes, int]) -> None:
        _set(self, "spec", spec)
        _set(self, "elements", elements)
        _set(self, "index", index)

    def __len__(self) -> int:
        return len(self.elements)

    def diagram(self, col: int) -> Diagram:
        """Concrete representative of column ``col``."""
        return decode_diagram(self.elements[col].encoding, self.spec.mode, self.spec.k)


@lru_cache(maxsize=None)
def rooted_expressions(k: int, m: int, mode: Mode) -> tuple[tuple[bytes, int], ...]:
    """Every nonzero canonical rooted subtree expression with ``m`` leaves,
    as (expression, leaf color bitmask) pairs in expression order.

    An expression is a color byte when ``m = 1`` and otherwise
    ``_NODE_BYTE + a + b`` with ``a < b``, the form ``_encode_rooted``
    writes.  Equal siblings are swapped by an orientation-reversing
    automorphism, so that subtree is zero and never listed.  Homotopy mode
    also needs ``a`` and ``b`` to have disjoint leaf colors.
    """
    if m == 1:
        return tuple((bytes([c]), 1 << c) for c in range(1, k + 1))
    homotopy = mode is Mode.HOMOTOPY
    out = []
    for ma in range(1, m // 2 + 1):
        for a, mask_a in rooted_expressions(k, ma, mode):
            for b, mask_b in rooted_expressions(k, m - ma, mode):
                if (2 * ma == m and a >= b) or (homotopy and mask_a & mask_b):
                    continue
                lo, hi = (a, b) if a < b else (b, a)
                out.append((_NODE_BYTE + lo + hi, mask_a | mask_b))
    return tuple(sorted(out))


def marked_encodings(k: int, deg: int, mode: Mode) -> Iterator[bytes]:
    """``bytes([c]) + E`` for every nonzero tree of degree ``deg`` marked at
    one leaf, in (c, E) order: ``c`` is the marked leaf's color and ``E``
    the rooted expression hanging off it.  Homotopy mode keeps ``c`` off
    the colors of ``E``."""
    exprs = rooted_expressions(k, deg, mode)
    for c in range(1, k + 1):
        for expr, mask in exprs:
            if not (mode is Mode.HOMOTOPY and mask >> c & 1):
                yield bytes([c]) + expr


def tree_components(k: int, deg: int, mode: Mode) -> tuple[TreeComponent, ...]:
    """Concrete canonical representatives of all nonzero trees of one
    degree, in encoding order.

    A tree's canonical encoding is its marked encoding at a least-colour
    leaf with the least expression, so only the marked encodings whose
    leg colour is their least colour are candidates.  When the leg's
    colour is below every colour of its expression, that rooting is the
    tree's only candidate, and the encoding is canonical and nonzero as it
    stands: every homotopy tree is of this kind.  A concordance tree
    whose least colour repeats is kept at the rooting its canonical form
    names, with sign +1.  ``marked_encodings`` yields in encoding order.
    """
    check_num_colors(k)
    if deg < 1:
        raise DomainError(f"tree degree must be >= 1, got {deg}")
    return tuple(
        decode_component(marked) for marked in marked_encodings(k, deg, mode)
        if marked[0] < min(marked[1:])
        or (marked[0] == min(marked[1:])
            and canonicalize_component(decode_component(marked), mode) == (marked, 1)))


def enumerate_trees(k: int, deg: int, mode: Mode,
                    max_elements: int = DEFAULT_MAX_ELEMENTS) -> list[CanonicalDiagram]:
    """All nonzero single-component diagrams of the given degree."""
    encodings = tree_encodings(k, deg, mode)
    if len(encodings) > max_elements:
        raise CapacityError(f"{len(encodings)} trees exceed the cap {max_elements}")
    return [CanonicalDiagram(enc, 1) for enc in encodings]


def _partitions(d: int, largest: int | None = None,
                max_parts: int | None = None) -> Iterator[tuple[int, ...]]:
    """Non-increasing partitions of d, into at most ``max_parts`` parts
    when given.  Parts are tried largest first, so once ``max_parts``
    copies of a part fall short of d no smaller part can do, and the
    recursion is never deeper than ``max_parts``."""
    if d == 0:
        yield ()
        return
    first = d if largest is None else min(d, largest)
    for part in range(first, 0, -1):
        if max_parts is not None and part * max_parts < d:
            return
        for rest in _partitions(d - part, part,
                                None if max_parts is None else max_parts - 1):
            yield (part,) + rest


@lru_cache(maxsize=None)
def tree_encodings(k: int, deg: int, mode: Mode) -> tuple[bytes, ...]:
    """Canonical encodings of ``tree_components(k, deg, mode)``, in the
    same (encoding) order."""
    return tuple(canonicalize_component(comp, mode)[0]
                 for comp in tree_components(k, deg, mode))


def tree_count(k: int, deg: int, mode: Mode) -> int:
    """Number of nonzero trees of degree ``deg``.

    In homotopy mode a nonzero tree has ``deg + 1`` distinct leaf colors,
    so it has no symmetry and is never zero: C(k, deg + 1) color sets
    times (2 deg - 3)!! trivalent shapes on labeled leaves.  Concordance
    mode counts ``tree_encodings``.
    """
    if mode is not Mode.HOMOTOPY:
        return len(tree_encodings(k, deg, mode))
    check_num_colors(k)
    if deg < 1:
        raise DomainError(f"tree degree must be >= 1, got {deg}")
    return math.comb(k, deg + 1) * math.prod(range(2 * deg - 3, 0, -2))


def forest_counts(k: int, d: int, mode: Mode) -> list[int]:
    """``forest_count(k, e, mode)`` for every e in 0..d, in one pass: the
    coefficients of the product over tree degrees ``deg`` of
    (1 - x**deg)**(-T), T = ``tree_count(k, deg, mode)``, one factor
    sum_m C(T + m - 1, m) x**(deg m) at a time."""
    counts = [1 if e == 0 else 0 for e in range(d + 1)]
    for deg in range(1, d + 1):
        t = tree_count(k, deg, mode)
        if not t:
            continue
        factor = [math.comb(t + m - 1, m) for m in range(d // deg + 1)]
        counts = [sum(counts[e - m * deg] * factor[m] for m in range(e // deg + 1))
                  for e in range(d + 1)]
    return counts


def forest_count(k: int, d: int, mode: Mode) -> int:
    """Number of multisets of nonzero trees with total degree ``d``: the
    sum over partitions of ``d`` of the product over part sizes ``deg``
    of C(T + m - 1, m), with T the number of trees of degree ``deg`` and
    m the multiplicity of that part."""
    return forest_counts(k, d, mode)[d] if d >= 0 else 0


def forest_encodings(k: int, d: int, mode: Mode, leaves: Optional[Sequence[int]] = None,
                     memo: Optional[dict] = None, components: Optional[int] = None
                     ) -> Iterator[tuple[bytes, ...]]:
    """Every multiset of nonzero trees with total degree ``d``, only those
    of ``components`` trees when given, or, given ``leaves``, every one
    with that leaf-colour multiset, as a tuple of component encodings
    (degree 0 yields the empty forest).  Equal components sit next to
    each other.

    The whole space comes in partition order; inside a forest, components
    run by decreasing degree and by encoding within a degree.  Its slice
    of c components takes the partitions of d into exactly c parts: one
    plus each part of a partition of the excess d - c into at most c
    parts, in the same order.  A block
    on L leaves has L - d components, each of degree at least 1, so it
    takes its trees of degree 2 to 2d - L + 1 one group of
    ``_tree_groups`` at a time, largest degree first, then the struts on
    the leaves left.  A step is taken only if the rest can still be
    filled: c = (leaves left) - (degree left) trees remain, each of
    degree between 1 and the largest degree still to come, and a
    homotopy tree has distinct colours, so no colour has more than c
    leaves left.  ``memo`` goes to ``_strut_multisets``.
    """
    if leaves is None:
        partitions = _partitions(d) if components is None else (
            tuple(part + 1 for part in excess) + (1,) * (components - len(excess))
            for excess in _partitions(d - components, max_parts=components))
        for partition in partitions:
            pools = [itertools.combinations_with_replacement(tree_encodings(k, deg, mode), m)
                     for deg, m in Counter(partition).items()]
            for choice in itertools.product(*pools):
                yield tuple(itertools.chain.from_iterable(choice))
        return
    groups = [(deg, vec, encs) for deg in range(2 * d - sum(leaves) + 1, 1, -1)
              for vec, encs in _tree_groups(k, deg, mode)
              if all(map(operator.le, vec, leaves))]
    homotopy = mode is Mode.HOMOTOPY
    memo = {} if memo is None else memo

    def fill(first: int, deg_left: int, left: tuple[int, ...]) -> Iterator[tuple[bytes, ...]]:
        trees = sum(left) - deg_left
        largest = groups[first][0] if first < len(groups) else 1
        if not 0 <= trees <= deg_left <= trees * largest or (homotopy and max(left) > trees):
            return
        if deg_left == trees:
            yield from _strut_multisets(left, mode, memo)
            return
        for g in range(first, len(groups)):
            deg, vec, encs = groups[g]
            taken = left
            for m in range(1, deg_left // deg + 1):
                taken = tuple(map(operator.sub, taken, vec))
                if min(taken) < 0:
                    break
                for tail in fill(g + 1, deg_left - deg * m, taken):
                    for choice in itertools.combinations_with_replacement(encs, m):
                        yield choice + tail

    try:
        yield from fill(0, d, tuple(leaves))
    finally:
        del fill  # it refers to itself: free its memo now, not at the next gc


def _leaf_groups(encodings: Iterable[bytes], k: int, skip: int = 0
                 ) -> tuple[tuple[tuple[int, ...], tuple[bytes, ...]], ...]:
    """``encodings`` grouped by the leaf vector (``leaf_vector``) of
    ``enc[skip:]``, as (vector, encodings) pairs, each group in the given
    order."""
    groups: dict[tuple[int, ...], list[bytes]] = {}
    for enc in encodings:
        groups.setdefault(leaf_vector(enc[skip:], k), []).append(enc)
    return tuple((vec, tuple(encs)) for vec, encs in groups.items())


@lru_cache(maxsize=None)
def _tree_groups(k: int, deg: int, mode: Mode
                 ) -> tuple[tuple[tuple[int, ...], tuple[bytes, ...]], ...]:
    """``tree_encodings`` grouped by leaf vector (``_leaf_groups``)."""
    return _leaf_groups(tree_encodings(k, deg, mode), k)


def leaf_vector(enc: bytes, k: int) -> tuple[int, ...]:
    """The leaf-colour multiset of an encoding (a component, a diagram
    or a rooted expression): entry i - 1 counts the leaves of colour i."""
    return tuple(enc.count(c) for c in range(1, k + 1))


def _build_basis(spec: BasisSpec, encodings: Iterable[bytes]) -> Basis:
    ordered = tuple(CanonicalDiagram(enc, 1) for enc in sorted(encodings))
    index = {cd.encoding: i for i, cd in enumerate(ordered)}
    return Basis(spec, ordered, index)


def enumerate_basis(k: int, d: int, mode: Mode,
                    max_elements: int = DEFAULT_MAX_ELEMENTS,
                    leaves: Optional[Sequence[int]] = None) -> Basis:
    """Ordered basis of all nonzero forests of total degree ``d``, or,
    given ``leaves``, of its block with that leaf-colour multiset
    (``_enumerate``)."""
    return _enumerate(BasisSpec(mode, k, "full", d, None if leaves is None else tuple(leaves)),
                      max_elements)


def enumerate_y_basis(k: int, n: int, mode: Mode,
                      max_elements: int = DEFAULT_MAX_ELEMENTS,
                      leaves: Optional[Sequence[int]] = None) -> Basis:
    """Ordered basis of diagrams with one Y-component and ``n`` struts,
    or, given ``leaves``, of its block with that leaf-colour multiset:
    the forests of degree n + 2 with n + 1 components (``_enumerate``),
    one Y and n struts."""
    return _enumerate(BasisSpec(mode, k, "y", n, None if leaves is None else tuple(leaves)),
                      max_elements)


def _enumerate(spec: BasisSpec, max_elements: float) -> Basis:
    """The forests of ``spec``'s slice (``forest_encodings``), in encoding
    order.  Distinct forests have distinct sorted component encodings, so
    the whole cell is capped at ``max_elements`` on its exact size
    (``check_cell``) before any forest is listed.  A block is not capped:
    ``pipeline`` checks its whole cell with ``check_cell`` first."""
    if spec.leaves is None:
        check_cell(spec, max_elements)
    return _build_basis(spec, [
        diagram_encoding(forest) for forest in forest_encodings(
            spec.k, spec.degree, spec.mode, spec.leaves, components=spec.components)])


def y_link_config_count(k: int, n: int, mode: Mode) -> int:
    """Raw configuration count behind ``relations.y_link_relations``: an
    ordered special strut (a, c*) times a multiset of n + 1 rest struts."""
    num_specials = k * k - (k if mode is Mode.HOMOTOPY else 0)
    return num_specials * math.comb(strut_type_count(k, mode) + n, n + 1)


def count_link_configs(k: int, d: int, mode: Mode) -> int:
    """Raw configuration count behind ``relations.link_relations``: marked
    trees of each degree dm times the forests of the remaining degree.

    A homotopy tree has distinct leaf colors, so each of its deg + 1
    leaves marks a different marked tree.  In concordance mode every leg
    colour goes with every rooted expression (``marked_encodings``).
    """
    def marked(dm: int) -> int:
        if mode is Mode.HOMOTOPY:
            return (dm + 1) * tree_count(k, dm, mode)
        return k * len(rooted_expressions(k, dm, mode))

    forests = forest_counts(k, d - 1, mode)
    return sum(marked(dm) * forests[d - dm] for dm in range(1, d + 1))


def check_cell(spec: BasisSpec, max_elements: float = math.inf,
               max_rows: float = math.inf) -> tuple[int, int]:
    """(basis size, raw link configurations) of the whole cell ``spec``
    names, after its domain checks and, in this order, the basis and
    configuration caps, all on exact counts.

    A single-Y cell has every colour triple's Y next to every strut
    multiset, C(k, 3) times ``strut_union_count`` forests, and
    ``y_link_config_count`` configurations; a full cell has
    ``forest_count`` forests and ``count_link_configs`` configurations.
    Both are closed form except in a full concordance cell, whose exact
    counts list its trees.  Its homotopy counts, closed form, bound them
    from below (a homotopy tree has distinct colours, so it is a nonzero
    concordance tree, and its marked trees and forests are concordance
    ones), so the caps are checked on those first.
    """
    k, param, mode = spec.k, spec.param, spec.mode
    y = spec.space == "y"
    if y and mode is Mode.HOMOTOPY and k < 3:
        raise DomainError("the homotopy Y-subspace needs k >= 3")
    if not y and mode is Mode.CONCORDANCE:
        low = forest_count(k, param, Mode.HOMOTOPY)
        if low > max_elements:
            raise CapacityError(f"at least {low} basis elements exceed the cap {max_elements}")
        low = count_link_configs(k, param, Mode.HOMOTOPY)
        if low > max_rows:
            raise CapacityError(
                f"at least {low} link configurations exceed the cap {max_rows}")
    size = math.comb(k, 3) * strut_union_count(k, param, mode) if y \
        else forest_count(k, param, mode)
    if size > max_elements:
        raise CapacityError(f"{size} basis elements exceed the cap {max_elements}")
    raw = y_link_config_count(k, param, mode) if y else count_link_configs(k, param, mode)
    if raw > max_rows:
        what = "configurations" if y else "link configurations"
        raise CapacityError(f"{raw} {what} exceed the cap {max_rows}")
    return size, raw


def _strut_multisets(ends: Sequence[int], mode: Mode, memo: Optional[dict] = None
                     ) -> list[tuple[bytes, ...]]:
    """Every multiset of nonzero struts with ``ends[i - 1]`` ends of
    colour i, as a sorted tuple of strut encodings ``bytes((i, j))``,
    i <= j.

    The smallest colour i with ends left is paired off first: all its
    struts are {i, j} with j >= i, so each choice of partners (two ends
    per {i, i} strut, allowed in concordance mode only) is followed by
    the multisets of the larger colours, and the struts come out sorted.
    Those depend only on the ends left to the larger colours, so each
    such suffix of ``ends`` is listed once, into ``memo``.  Callers with
    the same k and mode may share a memo; the calls of one block do.
    """
    k = len(ends)
    loops = mode is Mode.CONCORDANCE
    memo = {} if memo is None else memo

    def listing(left: tuple[int, ...]) -> list[tuple[bytes, ...]]:
        found = memo.get(left)
        if found is not None:
            return found
        i = k - len(left) + 1  # the colour of left[0]
        if not left:
            found = [()]
        elif not left[0]:
            found = listing(left[1:])
        else:
            found = []
            rest = list(left[1:])
            for m in range(left[0] // 2 + 1 if loops else 1):
                for head in partners(i, 0, left[0] - 2 * m, rest, (bytes((i, i)),) * m):
                    found += [head + tail for tail in listing(tuple(rest))]
        memo[left] = found
        return found

    def partners(i: int, j: int, need: int, rest: list[int], head: tuple
                 ) -> Iterator[tuple[bytes, ...]]:
        # ``rest`` holds the ends left to colours i + 1.. when a head is yielded
        if not need:
            yield head
            return
        while j < len(rest) and not rest[j]:
            j += 1
        if j == len(rest):
            return
        # the colours after i + 1 + j take what it does not
        after = sum(rest[j + 1:])
        for t in range(min(need, rest[j]), max(need - after, 0) - 1, -1):
            rest[j] -= t
            yield from partners(i, j + 1, need - t, rest, head + (bytes((i, i + 1 + j)),) * t)
            rest[j] += t

    found = listing(tuple(ends))
    del listing, partners  # they refer to themselves: free ``memo`` with the caller
    return found


def leaf_totals(space: str, param: int) -> range:
    """Leaf counts of the diagrams of a space: 2n + 3 for a Y next to n
    struts; d + 1 (one tree) to 2d (all struts) for forests of degree d."""
    if space == "y":
        return range(2 * param + 3, 2 * param + 4)
    return range(param + 1, 2 * param + 1)


def leaf_orbits(k: int, space: str, param: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(representative leaf multiset, orbit size), one per orbit of the
    colour permutations on the leaf-colour multisets of a space.

    A representative gives colour i the multiplicity lambda_i of a
    partition lambda of a leaf total (``leaf_totals``) into at most k
    parts.  Its orbit holds k! / prod_j (number of colours of
    multiplicity j)! multisets, counting multiplicity 0.
    """
    for total in leaf_totals(space, param):
        for part in _partitions(total, max_parts=k):
            leaves = part + (0,) * (k - len(part))
            orbit = math.factorial(k)
            for repeats in Counter(leaves).values():
                orbit //= math.factorial(repeats)
            yield leaves, orbit


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
