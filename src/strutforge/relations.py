"""Sparse relation rows over a diagram basis.

Two generators: the grafting form (any marked component attached
above every same-colored leg), and the three-term IHX rewiring.  Both
read the slice of the forest space their basis spans from its
``BasisSpec``, so a single-Y cell, the slice of degree n + 2 with n + 1
components, takes the same configuration loop (``_link_configs``) as a
full cell, and so does its dump (``iter_y_link_rows``).

Every link row comes from one builder, ``_link_row``, on canonical
encodings.  A link configuration is a marked tree and a rest forest.
The marked tree is a marked encoding from ``bases``: the leg's colour
byte followed by the rooted expression hanging off the leg, which
decodes with the leg at vertex 0.  The rest forest is a tuple of
component encodings, and ``_rest_hosts`` lists, per leaf colour, its
distinct components with a leaf of that colour, once per rest for every
marked tree grafted onto it.  A graft changes one component and leaves
the others as they are, and depends only on that component, the marked
tree and the mode, so the grafts of a (marked tree, host component)
pair (``_graft_terms``) and the I, H and X terms of a component
(``_ihx_terms``) are memoized by value in bounded caches, which every
block, cell and space of a process shares: each is computed once while
it stays in its cache.  A term's column is the basis index of the sorted
component encodings, looked up in one place.  Coefficients are
attachment multiplicities times the canonical antisymmetry signs, so one
fixed grafting convention reproduces the relations exactly.

A single-Y row is the link row whose marked tree is the special strut
(a, c*), the marked encoding ``bytes((c, a))``, over a rest R of n+1
struts: in that slice the marked trees have degree d - c = 1 and the
rests are the forests of n + 1 struts.  Grafting it above the c-end of
a rest strut {c, x} gives Y{a, c, x} oriented (a, c, x), one
``_graft_terms`` pair like any other, zero when two of a, c, x are
equal.  ``expand_along`` builds its row the same way, from the special
strut ``bytes((c, fixed))``.  Provenance text is built only for rows
kept after dedup, and only when asked for: the dumps ask,
``pipeline.build_relations`` does not.

A single-Y block is usually certified without its rows, by the
row-free peel in ``peel`` (``peel_y_block``); this module builds the
rows of a block that does not peel, and of every full block.  The peel
reads its rows' terms from the same graft memo, so ``_graft_terms`` and
the column lookup ``_term_column`` live in ``peel``, which loads neither
this module nor ``linalg``, and every row here grafts through them.

Both memos build their terms as bytes: a graft replaces the grafted
leaf's byte in the host's encoding with a node over the marked tree's
expression and that leaf, and an IHX term reassembles the four
subexpressions around an internal edge.  Each spliced encoding is then
decoded and canonicalized, so no tree is built here but by decoding an
encoding.

Grafting the leg of a marked tree onto a leaf of a rest forest F keeps
the leaves of F and of the expression E hanging off the leg, so every
term of the row has the leaves E + F, and an IHX rewiring keeps a
diagram's leaves.  The rows of one block M thus come from the marked
trees with E in M, each with the rest forests of leaves M - E, and from
the IHX instances of the block's own columns.  On L leaves and degree d
the marked trees have degree at most 2d - L and the trees at most
2d - L + 1, and only a tree of degree 3 or more has an internal edge, so
a block on 2d - 1 or more leaves, a single-Y block among them, has no
IHX row.

The graft-then-canonicalize constructions of all these rows, with a
concrete diagram per term, live in ``tests/brute_force.py``
(``PreGraftConfig`` and ``graft``) as the oracles the rows here,
``expand_along``'s included, are checked against, and so does the
adjacency surgery the splices replace (``join_components``, ``rewire``
and ``ihx_instances``).
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Callable, Iterator, Optional

from .bases import (
    Basis,
    BasisSpec,
    _leaf_groups,
    check_cell,
    count_link_configs,  # re-exported: the count behind link_relations
    forest_encodings,
    marked_encodings,
    y_link_config_count,  # re-exported: the count behind y_link_relations
)
from .diagrams import (
    _NODE,
    _NODE_BYTE,
    Diagram,
    Mode,
    canonicalize_component,
    component_encodings,
    decode_component,
    diagram_encoding,
    encoding_trivalent_count,
    render_component,
    render_encoding,
    strut_encoding,
)
from .errors import DomainError, Value, _set
from .peel import _graft_terms, _term_column
from .records import DEFAULT_MAX_ROWS


def _normalized(entries: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """The row or its negative, whichever has a positive first coefficient."""
    if entries and entries[0][1] < 0:
        return tuple((c, -v) for c, v in entries)
    return entries


class RelationRow(Value, compared=("entries",)):
    """Sparse integer vector over a basis: sorted (column, coefficient)
    pairs with no zeros, plus a description of the generating
    configuration, which == and hash skip."""

    __slots__ = ("entries", "provenance")
    entries: tuple[tuple[int, int], ...]
    provenance: str

    def __init__(self, entries: tuple[tuple[int, int], ...], provenance: str = "") -> None:
        _set(self, "entries", entries)
        _set(self, "provenance", provenance)
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
            coef, star, enc_hex = token.partition("*")
            try:
                if not star:
                    raise ValueError
                entries.append((basis.index[bytes.fromhex(enc_hex)], int(coef)))
            except (KeyError, ValueError):
                raise DomainError(f"relation term {token!r} is not "
                                  "<coefficient>*<hex of a basis encoding>") from None
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


def iter_y_link_rows(k: int, n: int, mode: Mode, basis: Basis
                     ) -> Iterator[tuple[RelationRow, int]]:
    """One (row, attachment targets) pair per configuration of the whole
    cell, pre-dedup, with provenance ``y-link special={a}-{c}* rest={i-j,...}``.

    This is the dump path: the link rows of y_link_relations before sign
    normalization and dedup, over the cell's configurations
    (``_link_configs``), run over a, then c, then every rest forest.  The
    row is the link row of the marked strut ``bytes((c, a))``
    (``_link_row``), empty when no term survives; the target count, the
    c-coloured ends of the rest, is zero exactly for the overcounted
    configurations whose distinguished color appears on no rest strut.
    """
    spec = BasisSpec(mode, k, "y", n)
    if basis.spec != spec:
        raise DomainError("basis does not match enumerate_y_basis(k, n, mode)")
    for special, rests in sorted(_link_configs(spec), key=lambda config: config[0][::-1]):
        c, a = special
        for rest, hosts in rests:
            desc = ",".join(map(render_encoding, rest))
            yield (RelationRow(_link_row(special, hosts, basis.index, mode),
                               f"y-link special={a}-{c}* rest={{{desc}}}"),
                   b"".join(rest).count(c))


def y_link_relations(k: int, n: int, mode: Mode, basis: Basis,
                     max_configs: int = DEFAULT_MAX_ROWS) -> list[RelationRow]:
    """Link relations inside the single-Y subspace.

    One candidate row per special strut (a, c*) and multiset R of n+1 rest
    struts: the link row whose marked tree is the special strut,
    ``bytes((c, a))``, over the rest R.  Grafting the distinguished end
    above a c-colored end of a rest strut {c, x} gives the term
    Y{a, c, x} plus R - {c, x}, so the row is the sum over strut types
    {c, x} in R of mult({c, x}) * sign(a, c, x) * [Y{a, c, x} + (R - {c, x})],
    where sign(a, c, x) is +1 when (a, c, x) is a cyclic rotation of its
    sorted order and -1 otherwise (the graft orients the new vertex
    (a, c, x)).  A term is zero when two of a, c, x are equal: a = x in
    homotopy mode, and the antisymmetry-zero Ys in concordance mode.
    Empty and duplicate rows are dropped; the rows carry no provenance.

    These are the rows ``link_relations`` gives at degree n + 2 over the
    cell's slice, whose marked trees are the special struts, on the whole
    cell (capped at ``max_configs``) and on a block (not capped).

    The graft construction (``PreGraftConfig`` over strut(a, c) in
    ``tests/brute_force.py``) builds a diagram, a spliced tree and a
    canonical form per term to reach the same rows; it is the oracle
    these rows are checked against.
    """
    if basis.spec != BasisSpec(mode, k, "y", n, basis.spec.leaves):
        raise DomainError("basis does not match enumerate_y_basis(k, n, mode)")
    return link_relations(k, n + 2, mode, basis, max_configs, provenance=False)


def count_effective_relations(k: int, n: int,
                              max_configs: int = DEFAULT_MAX_ROWS) -> tuple[int, int]:
    """(raw, nonempty) configuration counts for the homotopy Y-subspace.

    raw counts every (ordered special strut, multiset of n+1 struts)
    configuration; nonempty keeps those whose distinguished color appears
    on at least one rest strut, the rest being the overcounted relations
    that attach nowhere.  With s = C(k, 2) strut types, k - 1 of which
    carry a given color, nonempty = k(k-1) [C(s+n, n+1) - C(s-(k-1)+n, n+1)].
    The cell's domain and ``max_configs`` are checked first, as for a
    ``dim`` of it (``bases.check_cell``).
    """
    _, raw = check_cell(BasisSpec(Mode.HOMOTOPY, k, "y", n), max_rows=max_configs)
    avoiding = math.comb(math.comb(k, 2) - (k - 1) + n, n + 1)
    return raw, raw - k * (k - 1) * avoiding


@lru_cache(maxsize=None)
def marked_trees(k: int, deg: int, mode: Mode) -> tuple[bytes, ...]:
    """All marked trees of one degree, up to isomorphism, in (leg color,
    expression) order, as marked encodings (``bases.marked_encodings``):
    the leg's color byte followed by the canonical rooted expression
    hanging off the leg.  Decoding one puts the leg at vertex 0.  Marked
    trees equal to their own negative are never generated.  Homotopy
    mode keeps the leg color off the other legs: a repeated color on the
    marked component survives every graft and kills the row.
    """
    return tuple(marked_encodings(k, deg, mode))


def _rest_hosts(rest: tuple[bytes, ...]) -> dict[int, list[tuple[bytes, int, list[bytes]]]]:
    """Where a marked leg of each color can graft onto the rest forest
    ``rest``, a tuple of canonical component encodings with equal ones
    adjacent: per leaf color c, one (host, multiplicity, other
    components) per distinct component with a c-leaf."""
    hosts: dict[int, list[tuple[bytes, int, list[bytes]]]] = {}
    for pos, host in enumerate(rest):
        if pos and rest[pos - 1] == host:
            continue
        site = (host, rest.count(host), list(rest[:pos] + rest[pos + 1:]))
        for color in set(host) - {_NODE}:
            hosts.setdefault(color, []).append(site)
    return hosts


def _link_row(marked: bytes, hosts: dict[int, list[tuple[bytes, int, list[bytes]]]],
              index: dict[bytes, int], mode: Mode) -> tuple[tuple[int, int], ...]:
    """Sorted entries of the link row that grafts the leg of the marked
    tree ``marked`` above every same-colored leaf of the rest forest with
    these ``_rest_hosts``.

    A host repeated m times in the rest contributes its graft terms m
    times.  No two terms share a column, so no coefficient is summed
    here: a graft raises its host's degree, so R - h1 + g1 = R - h2 + g2
    forces h1 = h2, and ``_graft_terms`` already sums the equal grafts
    onto one host.
    """
    entries = []
    for host, mult, others in hosts.get(marked[0], ()):
        for enc, sign in _graft_terms(marked, host, mode):
            entries.append((_term_column(index, others + [enc]), mult * sign))
    entries.sort()
    return tuple(entries)


def link_relations(k: int, d: int, mode: Mode, basis: Basis,
                   max_configs: int = DEFAULT_MAX_ROWS,
                   provenance: bool = True) -> list[RelationRow]:
    """Link relations over the degree-d forests of the basis's space.

    Configurations pair a marked component with a forest of nonzero
    components making up the remaining degree; the row
    sums the grafts of the marked leg above every same-colored leg of the
    forest (grafts onto the marked component itself close a loop and
    vanish).

    The forest is a tuple of canonical component encodings, and the
    canonical grafts of a marked tree onto one component are computed
    once while the pair stays in ``_graft_terms``' cache (``_link_row``).
    The configurations run are those of the slice of the space the basis
    spans (``_link_configs``): on a block basis (``leaves``) the block's,
    whose rows are the block's rows over its own columns.  The basis is
    checked to be of degree d on k colours in ``mode`` (``_check_basis``),
    and then the exact configuration count of its whole cell against
    ``max_configs`` (``bases.check_cell``), before anything is listed; a
    block is not capped.  With ``provenance`` false the rows carry no
    description.
    """
    _check_basis(k, d, mode, basis)
    spec = basis.spec
    if spec.leaves is None:
        check_cell(spec, max_rows=max_configs)
    index = basis.index
    rows = _RowSet()
    for marked, rests in _link_configs(spec):
        for rest, hosts in rests:
            rows.add_entries(
                _link_row(marked, hosts, index, mode),
                (lambda: f"link marked={render_component(decode_component(marked))}"
                         f"@{marked[0]}* "
                         f"rest={{{','.join(render_encoding(e) for e in rest)}}}")
                if provenance else None)
    return rows.emit()


def _check_basis(k: int, d: int, mode: Mode, basis: Basis) -> None:
    """Refuse a basis that is not of degree d on k colours in ``mode``."""
    spec = basis.spec
    if (spec.mode, spec.k, spec.degree) != (mode, k, d):
        raise DomainError(f"basis does not match degree {d} on {k} colors in {mode.value} mode")


def _link_configs(spec: BasisSpec
                  ) -> Iterator[tuple[bytes, list[tuple[tuple[bytes, ...], dict]]]]:
    """(marked tree, rest forests) of the link configurations of the
    slice ``spec`` names, by marked-tree degree, each rest forest with
    its ``_rest_hosts``, found once for every marked tree that meets it.

    Grafting a marked tree onto a rest forest merges it into one of the
    rest's trees, so the rests have the slice's c components and the
    marked trees degree 1 to d - c, one less than the largest tree
    (``BasisSpec.largest_tree``).  The whole cell pairs every marked
    tree with every forest of c components and the remaining degree.  A
    row's terms all have the leaves of the rest forest plus those of the
    expression hanging off the leg, so a block with leaf multiset M (and
    L - d components on L = |M| leaves) takes each marked tree whose
    expression leaves E fit in M, with the forests of leaf multiset M - E
    (``_marked_groups``), and skips the marked trees whose leg colour is
    not in M - E: their rows are empty.  The block's rest forests share
    one ``_strut_multisets`` memo.
    """
    k, d, mode, leaves = spec.k, spec.degree, spec.mode, spec.leaves
    memo: dict = {}
    for dm in range(1, spec.largest_tree):
        if leaves is None:
            rests = [(rest, _rest_hosts(rest))
                     for rest in forest_encodings(k, d - dm, mode, components=spec.components)]
            for marked in marked_trees(k, dm, mode):
                yield marked, rests
            continue
        for vec, group in _marked_groups(k, dm, mode):
            left = tuple(map(operator.sub, leaves, vec))
            if min(left) < 0:
                continue
            legs = [marked for marked in group if left[marked[0] - 1]]
            if legs:
                rests = [(rest, _rest_hosts(rest))
                         for rest in forest_encodings(k, d - dm, mode, left, memo)]
                for marked in legs:
                    yield marked, rests


@lru_cache(maxsize=None)
def _marked_groups(k: int, deg: int, mode: Mode) -> tuple[
        tuple[tuple[int, ...], tuple[bytes, ...]], ...]:
    """``marked_trees`` grouped by the leaf vector of the expression
    hanging off the leg (``bases._leaf_groups``)."""
    return _leaf_groups(marked_trees(k, deg, mode), k, skip=1)


@lru_cache(maxsize=1 << 14)
def _ihx_terms(enc: bytes, mode: Mode) -> tuple[tuple[tuple[bytes, int], ...], ...]:
    """Canonical (encoding, sign) of the I, H and X terms of each internal
    edge of the component with canonical encoding ``enc``, in the order
    ``TreeComponent.internal_edges`` lists them on its decoding.

    An internal edge joins a node P = NODE + S1 + S2 of the encoding to
    a child Q = NODE + T1 + T2 that is a node too, taken by the position
    of P and then S1 before S2.  The I term is the
    component itself, ``(enc, 1)``.  H and X splice a rewired
    subexpression in place of P's and are decoded and canonicalized: for
    Q = S1, H is NODE + T2 + (NODE + S2 + T1) and X is
    NODE + T1 + (NODE + S2 + T2); for Q = S2, H is
    NODE + T1 + (NODE + S1 + T2) and X is NODE + T2 + (NODE + S1 + T1).
    With the four subtrees read cyclically after the edge as (A, B) at
    one end and (C, D) at the other, these are I(A,B|C,D), H(A,C|B,D)
    and X(B,C|A,D), and I - H + X = 0 is the Jacobi identity under this
    package's orientation conventions.
    """
    # end[i]: the position just past the subexpression starting at i
    end = [0] * (len(enc) + 1)
    for i in range(len(enc) - 1, 0, -1):
        end[i] = end[end[i + 1]] if enc[i] == _NODE else i + 1
    out = []
    for p in range(1, len(enc)):
        if enc[p] != _NODE:
            continue
        s2 = end[p + 1]
        head, tail = enc[:p] + _NODE_BYTE, enc[end[p]:]
        for q, keep in ((p + 1, enc[s2:end[p]]), (s2, enc[p + 1:s2])):
            if enc[q] != _NODE:
                continue
            t2 = end[q + 1]
            a, b = enc[q + 1:t2], enc[t2:end[q]]
            if q != s2:
                a, b = b, a
            h = head + a + _NODE_BYTE + keep + b + tail
            x = head + b + _NODE_BYTE + keep + a + tail
            out.append(((enc, 1), canonicalize_component(decode_component(h), mode),
                        canonicalize_component(decode_component(x), mode)))
    return tuple(out)


def ihx_relations(k: int, d: int, mode: Mode, basis: Basis,
                  provenance: bool = True) -> list[RelationRow]:
    """Three-term IHX rows, one per (basis diagram, component, internal
    edge); struts and Y-components have no internal edge and contribute
    nothing.

    The rewiring happens inside one component, so the canonical I, H and
    X terms of a component encoding are computed once while it stays in
    ``_ihx_terms``' cache, and each term's column is looked up with the
    diagram's other components.  A basis whose trees stay below degree 3
    (``BasisSpec.largest_tree``) has no internal edge and is not scanned.
    The basis is checked first (``_check_basis``).  With ``provenance``
    false the rows carry no description.
    """
    _check_basis(k, d, mode, basis)
    if basis.spec.largest_tree < 3:
        return []
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
    trivalent vertices (node bytes) has t - 1 of them, and a basis whose
    trees stay below degree 3 has none (``ihx_relations``)."""
    if basis.spec.largest_tree < 3:
        return 0
    return sum(max(encoding_trivalent_count(part) - 1, 0)
               for element in basis.elements
               for part in component_encodings(element.encoding))


def expand_along(d: Diagram, c: int, fixed: int, basis: Basis) -> RelationRow:
    """The link-relation row that cuts a Y-component with legs
    {c, fixed, x} into the special strut (fixed, c*) plus the residual
    strut (c, x), then grafts the distinguished end back onto every
    c-colored leg.  The special strut is the marked encoding
    ``bytes((c, fixed))``.

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
    scale = math.prod(sign for _, sign in others)
    entries = _link_row(bytes((c, fixed)), _rest_hosts(rest), basis.index, d.mode)
    return RelationRow(tuple((col, scale * v) for col, v in entries),
                       f"expand along {c} fixing {fixed}")
