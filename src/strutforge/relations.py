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
canonicalized.  The graft-then-canonicalize construction of the same
rows stays in the tests, as the oracle the closed form is checked
against.

The full-space link rows take their marked components straight from the
canonical marked encodings of ``bases`` (a leg color plus a rooted
expression), with no dedup or canonicalization.  Those rows and the IHX
rows are still built by grafting and rewiring concrete trees:
coefficients are attachment multiplicities times the canonical
antisymmetry signs, so one fixed grafting convention reproduces the
relations exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from .bases import (
    Basis,
    BasisSpec,
    _strut_pairs,
    forests,
    marked_encodings,
    strut_type_count,
)
from .diagrams import (
    Diagram,
    Mode,
    TreeComponent,
    _SEP_BYTE,
    canonicalize,
    decode_component,
    graft,
    render_component,
    strut,
    strut_encoding,
    y_encoding,
)
from .errors import CapacityError, DomainError

DEFAULT_MAX_ROWS = 20_000_000


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

    @property
    def is_empty(self) -> bool:
        return not self.entries

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


@dataclass(frozen=True)
class PreGraftConfig:
    """A relation configuration before grafting: a marked component with a
    distinguished leg, plus the forest it will be attached into."""

    host: tuple[TreeComponent, ...]
    marked: TreeComponent
    marked_leg: int

    def __post_init__(self) -> None:
        if self.marked.colors[self.marked_leg] == 0:
            raise DomainError("marked leg must be a leaf of the marked component")

    @property
    def color(self) -> int:
        return self.marked.colors[self.marked_leg]

    @property
    def total_degree(self) -> int:
        return self.marked.degree + sum(c.degree for c in self.host)

    def attachment_targets(self) -> list[tuple[int, int]]:
        """(component index, leaf vertex) pairs of matching color on the
        host; legs of the marked component itself are loops and excluded."""
        return [(ci, v) for ci, comp in enumerate(self.host)
                for v, color in comp.leaves() if color == self.color]

    def relation_row(self, basis: Basis, mode: Mode, k: int,
                     provenance: str = "") -> RelationRow:
        host = Diagram(self.host, mode, k)
        builder = _RowBuilder(basis)
        for ci, v in self.attachment_targets():
            builder.add(graft(self.marked, self.marked_leg, host, (ci, v)))
        return builder.row(provenance or self.describe())

    def describe(self) -> str:
        return (f"link marked={render_component(self.marked)}@{self.color}* "
                f"rest={_rest_desc(self.host)}")


class _RowBuilder:
    """Accumulates canonicalized graft terms into one sparse row."""

    def __init__(self, basis: Basis):
        self.basis = basis
        self.coeffs: dict[int, int] = {}

    def add(self, term: Diagram, weight: int = 1) -> None:
        cd = canonicalize(term)
        if cd.sign == 0:
            return
        col = self.basis.index.get(cd.encoding)
        if col is None:
            raise DomainError(
                "relation term falls outside the basis; the basis does not "
                "match this generator's space")
        self.coeffs[col] = self.coeffs.get(col, 0) + weight * cd.sign

    def row(self, provenance: str) -> RelationRow:
        entries = tuple(sorted((c, v) for c, v in self.coeffs.items() if v != 0))
        return RelationRow(entries, provenance)


class _RowSet:
    """Deduplicates normalized nonzero rows, keeping first provenance."""

    def __init__(self) -> None:
        self._rows: dict[tuple[tuple[int, int], ...], RelationRow] = {}

    def add(self, row: RelationRow) -> None:
        if row.is_empty:
            return
        norm = row.normalized()
        self._rows.setdefault(norm.entries, norm)

    def add_entries(self, entries: tuple[tuple[int, int], ...]) -> None:
        """Add a sorted, zero-free row given as bare entries; a RelationRow
        is built only for a row not seen before."""
        if entries:
            norm = _normalized(entries)
            if norm not in self._rows:
                self._rows[norm] = RelationRow(norm)

    def emit(self) -> list[RelationRow]:
        return [self._rows[key] for key in sorted(self._rows)]


def _special_struts(k: int, mode: Mode) -> Iterator[tuple[int, int]]:
    """Ordered (far color, distinguished color) pairs for the special
    strut; homotopy mode requires the two to differ."""
    for a in range(1, k + 1):
        for c in range(1, k + 1):
            if a == c and mode is Mode.HOMOTOPY:
                continue
            yield a, c


def _rest_desc(rest: tuple[TreeComponent, ...]) -> str:
    return "{" + ",".join(render_component(c) for c in rest) + "}"


def y_link_config_count(k: int, n: int, mode: Mode) -> int:
    """Raw configuration count behind y_link_relations."""
    num_specials = k * k - (k if mode is Mode.HOMOTOPY else 0)
    return num_specials * math.comb(strut_type_count(k, mode) + n, n + 1)


def _y_link_configs(k: int, n: int, mode: Mode, basis: Basis) -> Iterator[
        tuple[int, int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...], int]]:
    """(a, c, rest, entries, targets) per configuration, pre-dedup.

    ``(a, c)`` is the special strut with distinguished color c, ``rest``
    the n+1 rest struts as sorted end-color pairs, ``entries`` the sorted
    row and ``targets`` the number of c-colored ends in ``rest``.  Each
    term is one Y plus struts, so its column is looked up on the sorted
    component encodings directly.  Distinct x give distinct Y components,
    so terms never share a column and no coefficient cancels.
    """
    if basis.spec != BasisSpec(mode, k, "y", n):
        raise DomainError("basis does not match enumerate_y_basis(k, n, mode)")
    index = basis.index
    # Per rest multiset R and color c: the number of c-colored ends, and
    # one (x, mult, encodings of R minus one {c, x}) per strut type {c, x}
    # in R with x != c.  A {c, c} strut only adds ends: its Y is zero.
    plans = []
    for rest in itertools.combinations_with_replacement(_strut_pairs(k, mode), n + 1):
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
        plans.append((rest, ends, terms))
    for a, c in _special_struts(k, mode):
        ys = [y_encoding(a, c, x) for x in range(k + 1)]
        for rest, ends, terms in plans:
            entries = []
            for x, mult, others in terms.get(c, ()):
                y_enc, sign = ys[x]
                if sign:
                    key = _SEP_BYTE.join(sorted([y_enc, *others]))
                    try:
                        entries.append((index[key], mult * sign))
                    except KeyError:
                        raise DomainError(
                            "relation term falls outside the basis; the basis "
                            "does not match this generator's space") from None
            entries.sort()
            yield a, c, rest, tuple(entries), ends.get(c, 0)


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

    The graft construction (PreGraftConfig over strut(a, c)) builds a
    diagram, a spliced tree and a canonical form per term to reach the same
    rows, so it is kept only in the tests, as the oracle this closed form
    is checked against.
    """
    estimate = y_link_config_count(k, n, mode)
    if estimate > max_configs:
        raise CapacityError(f"{estimate} configurations exceed the cap {max_configs}")
    rows = _RowSet()
    for _, _, _, entries, _ in _y_link_configs(k, n, mode, basis):
        rows.add_entries(entries)
    return rows.emit()


def count_effective_relations(k: int, n: int,
                              max_configs: int = DEFAULT_MAX_ROWS) -> tuple[int, int]:
    """(raw, nonempty) configuration counts for the homotopy Y-subspace.

    raw counts every (ordered special strut, multiset of n+1 struts)
    configuration; nonempty keeps those whose distinguished color appears
    on at least one rest strut, the rest being the overcounted relations
    that attach nowhere.  With s = C(k, 2) strut types, k - 1 of which
    carry a given color, nonempty = k(k-1) [C(s+n, n+1) - C(s-(k-1)+n, n+1)].
    """
    s = math.comb(k, 2)
    raw = k * (k - 1) * math.comb(s + n, n + 1)
    if raw > max_configs:
        raise CapacityError(f"{raw} configurations exceed the cap {max_configs}")
    avoiding = math.comb(s - (k - 1) + n, n + 1)
    return raw, k * (k - 1) * (math.comb(s + n, n + 1) - avoiding)


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


def link_relations(k: int, d: int, mode: Mode, basis: Basis,
                   max_configs: int = DEFAULT_MAX_ROWS) -> list[RelationRow]:
    """Link relations over the full degree-d space.

    Configurations pair a marked component of each degree up to d with a
    forest of nonzero components making up the remaining degree; the row
    sums the grafts of the marked leg above every same-colored leg of the
    forest (grafts onto the marked component itself close a loop and
    vanish).
    """
    rows = _RowSet()
    raw = 0
    for dm in range(1, d + 1):
        rest_forests = list(forests(k, d - dm, mode))
        for m_comp, m_leg in marked_trees(k, dm, mode):
            for rest in rest_forests:
                raw += 1
                if raw > max_configs:
                    raise CapacityError(f"link configurations exceed the cap {max_configs}")
                config = PreGraftConfig(rest, m_comp, m_leg)
                rows.add(config.relation_row(basis, mode, k))
    return rows.emit()


def count_link_configs(k: int, d: int, mode: Mode) -> int:
    """Raw configuration count behind link_relations."""
    total = 0
    for dm in range(1, d + 1):
        n_rest = sum(1 for _ in forests(k, d - dm, mode))
        total += len(marked_trees(k, dm, mode)) * n_rest
    return total


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
    return TreeComponent(tuple(tuple(n) for n in adj), comp.colors)


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


def ihx_relations(k: int, d: int, mode: Mode, basis: Basis) -> list[RelationRow]:
    """Three-term IHX rows, one per (basis diagram, component, internal
    edge); struts and Y-components have no internal edge and contribute
    nothing."""
    rows = _RowSet()
    for col in range(len(basis)):
        diag = basis.diagram(col)
        for idx, comp in enumerate(diag.components):
            others = diag.components[:idx] + diag.components[idx + 1:]
            for term_i, term_h, term_x in ihx_instances(comp):
                builder = _RowBuilder(basis)
                builder.add(Diagram(others + (term_i,), mode, k), 1)
                builder.add(Diagram(others + (term_h,), mode, k), -1)
                builder.add(Diagram(others + (term_x,), mode, k), 1)
                rows.add(builder.row(
                    f"ihx diagram#{col} component#{idx} edge "
                    f"{render_component(comp)}"))
    return rows.emit()


def count_ihx_instances(basis: Basis) -> int:
    total = 0
    for col in range(len(basis)):
        for comp in basis.diagram(col).components:
            total += len(comp.internal_edges())
    return total


def expand_along(d: Diagram, c: int, fixed: int, basis: Basis) -> RelationRow:
    """The link-relation row that cuts a Y-component with legs
    {c, fixed, x} into the special strut (fixed, c*) plus the residual
    strut (c, x), then grafts the distinguished end back onto every
    c-colored leg.

    Returns the raw (unnormalized) row; it equals a generated link row up
    to overall sign.
    """
    if c == fixed:
        raise DomainError("expansion needs two distinct leg colors")
    cd = canonicalize(d)
    if cd.encoding not in basis.index:
        raise DomainError("diagram is not an element of the given basis")
    target_idx = None
    third = None
    for idx, comp in enumerate(d.components):
        if comp.degree == 2:
            legs = list(comp.leaf_colors())
            if c in legs and fixed in legs:
                legs.remove(c)
                legs.remove(fixed)
                target_idx, third = idx, legs[0]
                break
    if target_idx is None:
        raise DomainError(f"no Y-component with legs including {c} and {fixed}")
    rest = tuple(comp for i, comp in enumerate(d.components) if i != target_idx)
    rest = rest + (strut(c, third),)
    config = PreGraftConfig(rest, strut(fixed, c), 1)
    return config.relation_row(basis, d.mode, d.k,
                               f"expand along {c} fixing {fixed}")
