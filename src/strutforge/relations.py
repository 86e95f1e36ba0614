"""Sparse relation rows over a diagram basis.

Three generators: the single-Y link rows, the general grafting form over
the full space (any marked component attached above every same-colored
leg), and the three-term IHX rewiring at internal edges.

A single-Y link row comes from a special strut (a, c*) and a multiset R
of n+1 rest struts.  Grafting the distinguished end c above a c-colored
end of a rest strut {c, x} always yields the Y{a, c, x} oriented (a, c, x)
next to R - {c, x}, so the row is computed in closed form on encodings:
the sum over strut types {c, x} in R of
mult({c, x}) * sign(a, c, x) * [Y{a, c, x} + (R - {c, x})], where
sign(a, c, x) is the parity of the cyclic order (a, c, x) against sorted
order and is 0 when two of a, c, x are equal.  No diagram is built or
canonicalized.  Every term has the leaves a + R, whatever c and x are,
so each row is homogeneous in its leaf-colour multiset M = a + R, and
the rows of one block M come from its own configurations alone: the a
in M and the R with leaves M - a (``y_link_relations`` on a block
basis).  One loop over (a, c*, R) serves the whole cell and a block;
they differ only in the rests R listed for each a.

The full-space rows are assembled on canonical encodings too.  A link
configuration is a marked tree (a leg color plus a rooted expression
from ``bases``, the leg at vertex 0) and a rest forest given as a tuple
of component encodings; an IHX row rewires one component of a basis
encoding.  A graft or a rewiring changes one component and leaves the
others as they are, and depends only on that component and the mode.
So the grafts of a (marked tree, host component) pair
(``_graft_terms``) and the I, H and X terms of a component
(``_ihx_terms``) are memoized by value in bounded caches, which every
block and cell of a process shares: each is computed once while it
stays in its cache.  A term's column is the basis index of the sorted
component encodings, looked up in one place.  Coefficients are
attachment multiplicities times the canonical antisymmetry signs, so one
fixed grafting convention reproduces the relations exactly.
``expand_along`` builds its row with the same link-row assembly as
``link_relations``.  Provenance text is built only for rows kept after
dedup, and only when asked for: the dumps ask,
``pipeline.build_relations`` does not.

Grafting the leg of a marked tree onto a leaf of a rest forest F keeps
the leaves of F and of the expression E hanging off the leg, so every
term of the row has the leaves E + F, and an IHX rewiring keeps a
diagram's leaves.  The rows of one block M thus come from the marked
trees with E in M, each with the rest forests of leaves M - E
(``link_relations`` on a block basis), and from the IHX instances of
the block's own columns.

The graft-then-canonicalize constructions of all these rows, with a
concrete diagram per term, live in ``tests/brute_force.py``
(``PreGraftConfig`` and ``graft``) as the oracles the rows here,
``expand_along``'s included, are checked against.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, Optional

from .bases import (
    Basis,
    BasisSpec,
    _strut_multisets,
    _strut_pairs,
    check_y_caps,
    forest_counts,
    forest_encodings,
    marked_encodings,
    tree_count,
    y_link_config_count,
)
from .diagrams import (
    Diagram,
    Mode,
    TreeComponent,
    _built_component,
    _join_components,
    canonicalize_component,
    component_encodings,
    decode_component,
    diagram_encoding,
    encoding_trivalent_count,
    render_component,
    render_encoding,
    strut,
    strut_encoding,
    y_encoding,
)
from .errors import CapacityError, DomainError
from .records import DEFAULT_MAX_ROWS


def _normalized(entries: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """The row or its negative, whichever has a positive first coefficient."""
    if entries and entries[0][1] < 0:
        return tuple((c, -v) for c, v in entries)
    return entries


@dataclass(frozen=True)
class RelationRow:
    """Sparse integer vector over a basis: sorted (column, coefficient)
    pairs with no zeros, plus a description of the generating
    configuration."""

    entries: tuple[tuple[int, int], ...]
    provenance: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        cols = [c for c, _ in self.entries]
        if cols != sorted(set(cols)):
            raise DomainError("row entries must be sorted by distinct column")
        if any(v == 0 for _, v in self.entries):
            raise DomainError("row entries must be nonzero")

    def normalized(self) -> "RelationRow":
        """Sign-normalized copy: first coefficient positive."""
        entries = _normalized(self.entries)
        return self if entries is self.entries else RelationRow(entries, self.provenance)

    def to_dump_text(self, basis: Basis) -> str:
        """Text form referencing columns by encoding hex, re-parseable."""
        if not self.entries:
            return "0"
        return " ".join(f"{v:+d}*{basis.elements[c].encoding.hex()}"
                        for c, v in self.entries)

    @classmethod
    def from_dump_text(cls, text: str, basis: Basis,
                       provenance: str = "") -> "RelationRow":
        text = text.strip()
        if text == "0":
            return cls((), provenance)
        entries = []
        for token in text.split():
            coef_str, enc_hex = token.split("*", 1)
            col = basis.index[bytes.fromhex(enc_hex)]
            entries.append((col, int(coef_str)))
        return cls(tuple(sorted(entries)), provenance)


class _RowSet:
    """Deduplicates normalized nonzero rows, keeping first provenance."""

    def __init__(self) -> None:
        self._rows: dict[tuple[tuple[int, int], ...], RelationRow] = {}

    def add_entries(self, entries: tuple[tuple[int, int], ...],
                    describe: Optional[Callable[[], str]] = None) -> None:
        """Add a sorted, zero-free row given as bare entries; a RelationRow,
        and its provenance ``describe()``, is built only for a row not
        seen before."""
        if entries:
            norm = _normalized(entries)
            if norm not in self._rows:
                self._rows[norm] = RelationRow(norm, describe() if describe else "")

    def emit(self) -> list[RelationRow]:
        return [self._rows[key] for key in sorted(self._rows)]


def _y_rest_terms(rest: tuple[tuple[int, int], ...]) -> tuple[
        dict[int, int], dict[int, list[tuple[int, int, list[bytes]]]]]:
    """(ends, terms) of a rest multiset R of struts, given as sorted end
    color pairs: the number of ends of each color, and per color c one
    (x, mult({c, x}), encodings of R minus one {c, x}) per strut type
    {c, x} in R with x != c.  A {c, c} strut only adds ends: its Y is
    zero."""
    encs = [strut_encoding(i, j) for i, j in rest]
    ends: dict[int, int] = {}
    terms: dict[int, list] = {}
    for pos, (i, j) in enumerate(rest):
        ends[i] = ends.get(i, 0) + 1
        ends[j] = ends.get(j, 0) + 1
        if i == j or (pos and rest[pos - 1] == (i, j)):
            continue
        mult = rest.count((i, j))
        others = encs[:pos] + encs[pos + 1:]
        terms.setdefault(i, []).append((j, mult, others))
        terms.setdefault(j, []).append((i, mult, others))
    return ends, terms


def _y_row(a: int, c: int, terms: dict[int, list[tuple[int, int, list[bytes]]]],
           index: dict[bytes, int]) -> tuple[tuple[int, int], ...]:
    """Sorted entries of the single-Y link row of the special strut
    (a, c*) and a rest R with these ``_y_rest_terms``:
    mult({c, x}) * sign(a, c, x) on the column of Y{a, c, x} + (R - {c, x})
    per strut type {c, x} in R.  Distinct x give distinct Y components,
    so terms never share a column and no coefficient cancels."""
    entries = []
    for x, mult, others in terms.get(c, ()):
        y_enc, sign = y_encoding(a, c, x)
        if sign:
            entries.append((_term_column(index, [y_enc, *others]), mult * sign))
    entries.sort()
    return tuple(entries)


def _y_link_configs(k: int, n: int, mode: Mode, basis: Basis) -> Iterator[
        tuple[int, int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...], int]]:
    """(a, c, rest, entries, targets) per configuration, pre-dedup.

    ``(a, c)`` is the special strut with distinguished color c, ``rest``
    the n+1 rest struts as sorted end-color pairs, ``entries`` the sorted
    row (``_y_row``) and ``targets`` the number of c-colored ends in
    ``rest``.  Each term is one Y plus struts, so its column is looked up
    on the sorted component encodings directly.

    One loop runs over a, then c, then the rests for a, the order of the
    dumps.  The whole cell takes every multiset R for every a, listed
    once.  A block with leaf multiset M takes the a in M and the R whose
    ends make up M - a: the configurations whose rows can touch the
    block, since a row's terms all have the leaves a + R.
    """
    spec = basis.spec
    if spec != BasisSpec(mode, k, "y", n, spec.leaves):
        raise DomainError("basis does not match enumerate_y_basis(k, n, mode)")
    index, leaves = basis.index, spec.leaves
    if leaves is None:
        every = [(rest, *_y_rest_terms(rest)) for rest in
                 itertools.combinations_with_replacement(_strut_pairs(k, mode), n + 1)]
    memo: dict = {}
    for a in range(1, k + 1):
        if leaves is None:
            rests = every
        elif leaves[a - 1]:
            rests = [(rest, *_y_rest_terms(rest)) for rest in _strut_multisets(
                tuple(e - (c == a) for c, e in enumerate(leaves, 1)), mode, memo)]
        else:
            continue
        for c in range(1, k + 1):
            if a == c and mode is Mode.HOMOTOPY:
                continue
            for rest, ends, terms in rests:
                yield a, c, rest, _y_row(a, c, terms, index), ends.get(c, 0)


def iter_y_link_rows(k: int, n: int, mode: Mode, basis: Basis
                     ) -> Iterator[tuple[RelationRow, int]]:
    """One (row, attachment targets) pair per configuration, pre-dedup,
    with provenance ``y-link special={a}-{c}* rest={i-j,...}``.

    This is the dump path.  Rows come from the closed form of
    y_link_relations, before sign normalization and dedup: one term
    mult({c, x}) * sign(a, c, x) per strut type {c, x} of the rest, with
    sign(a, c, x) the parity of the cyclic order (a, c, x) against sorted
    order, and no term when two of a, c, x are equal.  The provenance is
    written from the color pairs.  The row is empty when no term survives;
    the target count is zero exactly for the overcounted configurations
    whose distinguished color appears on no rest strut.
    """
    for a, c, rest, entries, targets in _y_link_configs(k, n, mode, basis):
        desc = ",".join(f"{i}-{j}" for i, j in rest)
        yield RelationRow(entries, f"y-link special={a}-{c}* rest={{{desc}}}"), targets


def y_link_relations(k: int, n: int, mode: Mode, basis: Basis,
                     max_configs: int = DEFAULT_MAX_ROWS) -> list[RelationRow]:
    """Link relations inside the single-Y subspace, in closed form.

    One candidate row per special strut (a, c*) and multiset R of n+1 rest
    struts.  Grafting the distinguished end above a c-colored end of a
    rest strut {c, x} gives the term Y{a, c, x} plus R - {c, x}, so the
    row is the sum over strut types {c, x} in R of
    mult({c, x}) * sign(a, c, x) * [Y{a, c, x} + (R - {c, x})],
    where sign(a, c, x) is +1 when (a, c, x) is a cyclic rotation of its
    sorted order and -1 otherwise (the graft orients the new vertex
    (a, c, x)).  A term is zero when two of a, c, x are equal: a = x in
    homotopy mode, and the antisymmetry-zero Ys in concordance mode.
    Empty and duplicate rows are dropped; the rows carry no provenance.

    Given a block basis (``enumerate_y_basis`` with ``leaves``), only the
    configurations of that block are run, and the rows are the block's
    rows over its own columns.  The whole cell's configuration count is
    capped at ``max_configs``; a block is not capped (``check_y_caps``).

    The graft construction (``PreGraftConfig`` over strut(a, c) in
    ``tests/brute_force.py``) builds a diagram, a spliced tree and a
    canonical form per term to reach the same rows; it is the oracle this
    closed form is checked against.
    """
    if basis.spec.leaves is None:
        check_y_caps(k, n, mode, max_rows=max_configs)
    rows = _RowSet()
    for _, _, _, entries, _ in _y_link_configs(k, n, mode, basis):
        rows.add_entries(entries)
    return rows.emit()


def coefficient_bound(space: str, param: int) -> int:
    """Largest absolute coefficient a relation row of the space can have.

    A single-Y row has one term per rest strut type {c, x}, weighted by
    its multiplicity among the n + 1 rest struts.  A full-space link
    coefficient counts signed grafts onto same-colored leaves of a rest
    forest of degree at most d - 1, which has at most 2(d - 1) leaves,
    and an IHX row has three unit terms.
    """
    if space == "y":
        return param + 1
    return max(3, 2 * (param - 1))


def count_effective_relations(k: int, n: int,
                              max_configs: int = DEFAULT_MAX_ROWS) -> tuple[int, int]:
    """(raw, nonempty) configuration counts for the homotopy Y-subspace.

    raw counts every (ordered special strut, multiset of n+1 struts)
    configuration; nonempty keeps those whose distinguished color appears
    on at least one rest strut, the rest being the overcounted relations
    that attach nowhere.  With s = C(k, 2) strut types, k - 1 of which
    carry a given color, nonempty = k(k-1) [C(s+n, n+1) - C(s-(k-1)+n, n+1)].
    """
    raw = y_link_config_count(k, n, Mode.HOMOTOPY)
    if raw > max_configs:
        raise CapacityError(f"{raw} configurations exceed the cap {max_configs}")
    avoiding = math.comb(math.comb(k, 2) - (k - 1) + n, n + 1)
    return raw, raw - k * (k - 1) * avoiding


@lru_cache(maxsize=None)
def marked_trees(k: int, deg: int, mode: Mode) -> tuple[tuple[TreeComponent, int], ...]:
    """All (tree, marked leaf) configurations of one degree, up to
    isomorphism of the marked tree, in (leg color, expression) order.

    A marked tree is its leg color plus the canonical rooted expression at
    the leg (``bases.marked_encodings``), so each configuration is decoded
    once with the leg at vertex 0.  Marked trees equal to their own
    negative are never generated.  Homotopy mode keeps the leg color off
    the other legs: a repeated color on the marked component survives
    every graft and kills the row.
    """
    return tuple((decode_component(enc), 0) for enc in marked_encodings(k, deg, mode))


def _term_column(index: dict[bytes, int], components: list[bytes]) -> int:
    """Basis column of the forest with these canonical component encodings."""
    try:
        return index[diagram_encoding(components)]
    except KeyError:
        raise DomainError(
            "relation term falls outside the basis; the basis does not "
            "match this generator's space") from None


@lru_cache(maxsize=1 << 16)
def _graft_terms(marked: TreeComponent, host: bytes,
                 mode: Mode) -> tuple[tuple[bytes, int], ...]:
    """(encoding, summed sign) of the canonical components made by grafting
    the marked leg, vertex 0, above each same-colored leaf of the host
    component with canonical encoding ``host``, zeros dropped.  The key
    leaves out k: a graft does not depend on it.
    """
    color = marked.colors[0]
    comp = decode_component(host)
    terms: dict[bytes, int] = {}
    for v, c in comp.leaves():
        if c == color:
            enc, sign = canonicalize_component(_join_components(marked, 0, comp, v), mode)
            if sign:
                terms[enc] = terms.get(enc, 0) + sign
    return tuple((enc, sign) for enc, sign in terms.items() if sign)


def _link_row(marked: TreeComponent, rest: tuple[bytes, ...],
              index: dict[bytes, int], mode: Mode,
              scale: int = 1) -> tuple[tuple[int, int], ...]:
    """Sorted entries of the link row that grafts the marked leg above
    every same-colored leaf of the rest forest, times ``scale``.

    ``rest`` is a tuple of canonical component encodings with equal ones
    adjacent.  Grafting onto one component leaves the others as they
    are, so a component repeated m times contributes its graft terms m
    times.  A component without the leg's colour takes no graft and is
    skipped before the ``_graft_terms`` cache.
    """
    coeffs: dict[int, int] = {}
    for pos, host in enumerate(rest):
        if pos and rest[pos - 1] == host or marked.colors[0] not in host:
            continue
        terms = _graft_terms(marked, host, mode)
        if not terms:
            continue
        mult = rest.count(host) * scale
        others = list(rest[:pos] + rest[pos + 1:])
        for enc, sign in terms:
            col = _term_column(index, others + [enc])
            coeffs[col] = coeffs.get(col, 0) + mult * sign
    return tuple(sorted((c, v) for c, v in coeffs.items() if v))


def link_relations(k: int, d: int, mode: Mode, basis: Basis,
                   max_configs: int = DEFAULT_MAX_ROWS,
                   provenance: bool = True) -> list[RelationRow]:
    """Link relations over the full degree-d space.

    Configurations pair a marked component of each degree up to d with a
    forest of nonzero components making up the remaining degree; the row
    sums the grafts of the marked leg above every same-colored leg of the
    forest (grafts onto the marked component itself close a loop and
    vanish).

    The forest is a tuple of canonical component encodings, and the
    canonical grafts of a marked tree onto one component are computed
    once while the pair stays in ``_graft_terms``' cache (``_link_row``).
    Given a block basis (``enumerate_basis`` with ``leaves``), only the
    block's configurations are run (``_link_configs``), and the rows are
    the block's rows over its own columns.  The whole cell's exact
    configuration count is checked against ``max_configs`` before the
    first row; a block is not capped.  With ``provenance`` false the rows
    carry no description.
    """
    leaves = basis.spec.leaves
    if leaves is None:
        total = count_link_configs(k, d, mode)
        if total > max_configs:
            raise CapacityError(f"{total} link configurations exceed the cap {max_configs}")
    index = basis.index
    rows = _RowSet()
    for m_comp, rest_forests in _link_configs(k, d, mode, leaves):
        for rest in rest_forests:
            rows.add_entries(
                _link_row(m_comp, rest, index, mode),
                (lambda: f"link marked={render_component(m_comp)}@{m_comp.colors[0]}* "
                         f"rest={{{','.join(render_encoding(e) for e in rest)}}}")
                if provenance else None)
    return rows.emit()


def _link_configs(k: int, d: int, mode: Mode, leaves: Optional[tuple[int, ...]]
                  ) -> Iterator[tuple[TreeComponent, list[tuple[bytes, ...]]]]:
    """(marked tree, rest forests) of the link configurations, by
    marked-tree degree; the marked leg is vertex 0 (``marked_trees``).

    The whole cell pairs every marked tree with every forest of the
    remaining degree.  A row's terms all have the leaves of the rest
    forest plus those of the expression hanging off the leg, so a block
    with leaf multiset M takes each marked tree whose expression leaves E
    fit in M, with the forests of leaf multiset M - E
    (``_marked_groups``), and skips the marked trees whose leg colour is
    not in M - E: their rows are empty.
    """
    for dm in range(1, d + 1):
        if leaves is None:
            rest_forests = list(forest_encodings(k, d - dm, mode))
            for m_comp, _ in marked_trees(k, dm, mode):
                yield m_comp, rest_forests
            continue
        for vec, group in _marked_groups(k, dm, mode):
            left = tuple(map(operator.sub, leaves, vec))
            if min(left) < 0:
                continue
            rest_forests = list(forest_encodings(k, d - dm, mode, left))
            for m_comp in group:
                if rest_forests and left[m_comp.colors[0] - 1]:
                    yield m_comp, rest_forests


@lru_cache(maxsize=None)
def _marked_groups(k: int, deg: int, mode: Mode) -> tuple[
        tuple[tuple[int, ...], tuple[TreeComponent, ...]], ...]:
    """``marked_trees`` grouped by the leaf vector of the expression
    hanging off the leg (entry i - 1 counts colour i), as (vector,
    marked trees) pairs, the trees in their order."""
    groups: dict[tuple[int, ...], list[TreeComponent]] = {}
    for comp, _ in marked_trees(k, deg, mode):
        vec = [0] * k
        for _, c in comp.leaves()[1:]:
            vec[c - 1] += 1
        groups.setdefault(tuple(vec), []).append(comp)
    return tuple((vec, tuple(group)) for vec, group in groups.items())


def count_link_configs(k: int, d: int, mode: Mode) -> int:
    """Raw configuration count behind link_relations: marked trees of
    each degree dm times the forests of the remaining degree.

    A homotopy tree has distinct leaf colors, so each of its deg + 1
    leaves marks a different marked tree; concordance mode counts
    ``marked_trees``.
    """
    def marked(dm: int) -> int:
        if mode is Mode.HOMOTOPY:
            return (dm + 1) * tree_count(k, dm, mode)
        return len(marked_trees(k, dm, mode))

    forests = forest_counts(k, d - 1, mode)
    return sum(marked(dm) * forests[d - dm] for dm in range(1, d + 1))


def _rewire(comp: TreeComponent, u: int, v: int,
            at_u: tuple[int, int], at_v: tuple[int, int]) -> TreeComponent:
    """Reattach the four subtrees around the internal edge (u, v):
    ``at_u`` hang off u (oriented (v, x1, x2)), ``at_v`` off v."""
    adj = [list(ns) for ns in comp.adj]
    adj[u] = [v, at_u[0], at_u[1]]
    adj[v] = [u, at_v[0], at_v[1]]
    for x, parent in ((at_u[0], u), (at_u[1], u), (at_v[0], v), (at_v[1], v)):
        old = u if u in comp.adj[x] else v
        adj[x] = [parent if t == old else t for t in adj[x]]
    return _built_component(tuple(tuple(n) for n in adj), comp.colors)


def ihx_instances(comp: TreeComponent) -> Iterator[tuple[TreeComponent, TreeComponent, TreeComponent]]:
    """(I, H, X) component triples, one per internal edge.

    With the four subtrees read cyclically after the edge as (A, B) at one
    end and (C, D) at the other, the Jacobi identity gives
    I(A,B|C,D) - H(A,C|B,D) + X(B,C|A,D) = 0 under this package's
    orientation conventions.
    """
    for u, v in comp.internal_edges():
        iu = comp.adj[u].index(v)
        a, b = comp.adj[u][(iu + 1) % 3], comp.adj[u][(iu + 2) % 3]
        jv = comp.adj[v].index(u)
        c, d = comp.adj[v][(jv + 1) % 3], comp.adj[v][(jv + 2) % 3]
        term_i = _rewire(comp, u, v, (a, b), (c, d))
        term_h = _rewire(comp, u, v, (a, c), (b, d))
        term_x = _rewire(comp, u, v, (b, c), (a, d))
        yield term_i, term_h, term_x


@lru_cache(maxsize=1 << 14)
def _ihx_terms(enc: bytes, mode: Mode) -> tuple[tuple[tuple[bytes, int], ...], ...]:
    """Canonical (encoding, sign) of the I, H and X terms of each internal
    edge of the component with canonical encoding ``enc``."""
    return tuple(tuple(canonicalize_component(term, mode) for term in triple)
                 for triple in ihx_instances(decode_component(enc)))


def ihx_relations(k: int, d: int, mode: Mode, basis: Basis,
                  provenance: bool = True) -> list[RelationRow]:
    """Three-term IHX rows, one per (basis diagram, component, internal
    edge); struts and Y-components have no internal edge and contribute
    nothing.

    The rewiring happens inside one component, so the canonical I, H and
    X terms of a component encoding are computed once while it stays in
    ``_ihx_terms``' cache, and each term's column is looked up with the
    diagram's other components.
    With ``provenance`` false the rows carry no description.
    """
    index = basis.index
    rows = _RowSet()
    for col, element in enumerate(basis.elements):
        parts = component_encodings(element.encoding)
        for idx, enc in enumerate(parts):
            if encoding_trivalent_count(enc) < 2:
                continue
            others = parts[:idx] + parts[idx + 1:]
            for triple in _ihx_terms(enc, mode):
                coeffs: dict[int, int] = {}
                for (term, sign), weight in zip(triple, (1, -1, 1)):
                    if sign:
                        c = _term_column(index, others + [term])
                        coeffs[c] = coeffs.get(c, 0) + weight * sign
                rows.add_entries(
                    tuple(sorted((c, v) for c, v in coeffs.items() if v)),
                    (lambda: f"ihx diagram#{col} component#{idx} edge {render_encoding(enc)}")
                    if provenance else None)
    return rows.emit()


def count_ihx_instances(basis: Basis) -> int:
    """Internal edges over all basis diagrams: a component with t >= 1
    trivalent vertices (node bytes) has t - 1 of them."""
    return sum(max(encoding_trivalent_count(part) - 1, 0)
               for element in basis.elements
               for part in component_encodings(element.encoding))


def expand_along(d: Diagram, c: int, fixed: int, basis: Basis) -> RelationRow:
    """The link-relation row that cuts a Y-component with legs
    {c, fixed, x} into the special strut (fixed, c*) plus the residual
    strut (c, x), then grafts the distinguished end back onto every
    c-colored leg.  The special strut is ``strut(c, fixed)``, its
    distinguished end at vertex 0 like every marked tree's leg.

    The rest forest is the canonical encodings of the other components
    plus the residual strut, and the row is scaled by the other
    components' canonical signs, so it is exact for a diagram that is not
    its class's +1 representative.  Returns the raw (unnormalized) row;
    it equals a generated link row up to overall sign.
    """
    if c == fixed:
        raise DomainError("expansion needs two distinct leg colors")
    canon = [canonicalize_component(comp, d.mode) for comp in d.components]
    if any(sign == 0 for _, sign in canon) or \
            diagram_encoding(enc for enc, _ in canon) not in basis.index:
        raise DomainError("diagram is not an element of the given basis")
    for idx, comp in enumerate(d.components):
        if comp.degree == 2:
            legs = list(comp.leaf_colors())
            if c in legs and fixed in legs:
                legs.remove(c)
                legs.remove(fixed)
                third = legs[0]
                break
    else:
        raise DomainError(f"no Y-component with legs including {c} and {fixed}")
    others = canon[:idx] + canon[idx + 1:]
    rest = tuple(sorted([enc for enc, _ in others] + [strut_encoding(c, third)]))
    entries = _link_row(strut(c, fixed), rest, basis.index, d.mode,
                        math.prod(sign for _, sign in others))
    return RelationRow(entries, f"expand along {c} fixing {fixed}")
