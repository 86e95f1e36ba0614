"""Brute-force oracles for the fast paths in ``strutforge``.

The canonical form of a component from a rooting at every leaf, the
oracle for ``strutforge.diagrams.canonicalize_component``, which roots
only at the leaves of the least color.

Leaf recolouring and vertex relabelling of a concrete component, for
the marked-tree oracle and the canonical-form property tests.  A colour
permutation as a byte table (``colour_table``) and the recoloured
canonical encoding of a diagram (``recoloured_encoding``), for the
orbit tests that map each block onto the other blocks of its orbit.

Tree enumeration, the oracle for the rooted-expression generator in
``strutforge.bases``: every unitrivalent tree shape is grown by leaf
insertion, colored in all mode-legal ways, canonicalized and
deduplicated, so completeness rests only on the canonical form.

Relation rows by grafting concrete diagrams: ``join_components`` splices
the adjacency tables of a marked component and a host component,
``graft`` joins a marked component onto a host diagram, and
``PreGraftConfig`` sums those grafts into one row, each term
canonicalized as a whole diagram.  They are the oracle for
``y_link_relations``, ``link_relations`` and ``expand_along`` in
``strutforge.relations``, and ``join_components`` for the encoding
splices of ``strutforge.diagrams.graft_terms``.  The IHX oracle rewires
the adjacency of the decoded basis diagrams (``rewire`` and
``ihx_instances``), for ``ihx_relations``, ``count_ihx_instances`` and
the encoding splices of ``strutforge.diagrams.ihx_terms``.

The ungraded dimension and witness, the oracles for the orbit-graded
``compute_dimension`` and ``compute_witness`` of ``strutforge.pipeline``
on both spaces: the whole basis, the whole row set, and one rank or
one reduced echelon form of the whole matrix.

The singleton peel of a block's real rows by passes (``peel_passes``),
the oracle for the row-free peel of a single-Y block, ``y_peel_passes``,
and for the queued peel of built rows, ``peel_rows``, in
``strutforge.peel``.

Echelon pivot order, the oracle for the heap pivot queue of
``strutforge.linalg._echelon_block``: every pivot is the minimum over a
scan of all live rows.  And the echelon pivots taken block by block
over the column-connected blocks of the rows, the oracle for the one
heap per matrix of ``strutforge.linalg._echelon``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from strutforge import __version__, bases
from strutforge.bases import DEFAULT_MAX_ELEMENTS, Basis, BasisSpec
from strutforge.diagrams import (
    MARKED_COLOR,
    Diagram,
    Mode,
    TreeComponent,
    _encode_rooted,
    canonicalize,
    canonicalize_component,
    component_encodings,
    decode_component,
    diagram_encoding,
    render_component,
    strut_encoding,
)
from strutforge.errors import DomainError
from strutforge.linalg import (
    DEFAULT_PRIMES,
    SparseMatrix,
    _echelon_block,
    _rows_mod_p,
    cokernel_functionals,
    rank_multiprime,
)
from strutforge.pipeline import ResultRecord, build_basis, build_relations
from strutforge.relations import (
    RelationRow,
    count_link_configs,
    y_link_config_count,
)


def canonicalize_component_all_leaves(comp: TreeComponent, mode: Mode) -> tuple[bytes, int]:
    """Canonical (encoding, sign) of one component: the least encoding
    over the rootings at every leaf.  Rootings that reach the minimum with
    both signs, or a sign-0 subtree, make the component zero, and so does
    a repeated leaf color in homotopy mode."""
    if mode is Mode.HOMOTOPY:
        cols = [c for c in comp.colors if c > 0]
        if len(set(cols)) != len(cols):
            return b"", 0
    best: Optional[bytes] = None
    best_signs: set[int] = set()
    for v, color in comp.leaves():
        sub_enc, sub_sign = _encode_rooted(comp.adj, comp.colors, comp.adj[v][0], v)
        if sub_sign == 0:
            return b"", 0
        enc = bytes([color]) + sub_enc
        if best is None or enc < best:
            best = enc
            best_signs = {sub_sign}
        elif enc == best:
            best_signs.add(sub_sign)
    if len(best_signs) == 2:
        return b"", 0
    return best, best_signs.pop()


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


def with_color(comp: TreeComponent, v: int, color: int) -> TreeComponent:
    """The same tree with the leaf ``v`` recolored to ``color``."""
    if len(comp.adj[v]) != 1:
        raise DomainError(f"vertex {v} is not a leaf")
    colors = list(comp.colors)
    colors[v] = color
    return TreeComponent(comp.adj, tuple(colors))


def relabeled(comp: TreeComponent, perm: Sequence[int]) -> TreeComponent:
    """The same tree with vertex ids permuted by ``perm`` (old -> new)."""
    n = len(comp.adj)
    adj = [()] * n
    colors = [0] * n
    for v in range(n):
        adj[perm[v]] = tuple(perm[u] for u in comp.adj[v])
        colors[perm[v]] = comp.colors[v]
    return TreeComponent(tuple(adj), tuple(colors))


def colour_table(leaves: Sequence[int], image: Sequence[int]) -> bytes:
    """A byte translation table of a colour permutation s with
    image[s(i) - 1] == leaves[i - 1] for every colour i."""
    targets: dict[int, list[int]] = {}
    for c, m in reversed(list(enumerate(image, 1))):
        targets.setdefault(m, []).append(c)
    table = bytearray(range(256))
    for c, m in enumerate(leaves, 1):
        table[c] = targets[m].pop()
    return bytes(table)


def recoloured_encoding(enc: bytes, table: bytes, mode: Mode) -> bytes:
    """Encoding of the nonzero encoded diagram with each leaf color c
    replaced by ``table[c]``, a permutation of the colors: the translated
    bytes encode the recolored components, which are canonicalized
    again.  A strut needs only its ends ordered: a permutation keeps
    them distinct or equal, as they were."""
    return diagram_encoding(
        strut_encoding(*part) if len(part) == 2
        else canonicalize_component(decode_component(part), mode)[0]
        for part in component_encodings(enc.translate(table)))


def marked_tree_key(comp: TreeComponent, leg: int) -> tuple[int, bytes]:
    """(leg color, concordance encoding with the leg recolored to the
    reserved marked color): equal exactly for isomorphic marked trees.
    The encoding is empty when the marked tree equals its own negative."""
    recolored = with_color(comp, leg, MARKED_COLOR)
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


def join_components(marked: TreeComponent, marked_leg: int,
                    host_comp: TreeComponent, host_leg: int) -> TreeComponent:
    """Splice ``marked`` onto ``host_comp`` just above ``host_leg``.

    The marked leaf disappears into a new trivalent vertex sitting on the
    host leaf's edge; the new vertex is oriented (edge from the marked
    component, edge to the surviving host leaf, edge into the rest of the
    host component).
    """
    h = len(host_comp.adj)
    m = len(marked.adj)
    # Host vertices keep ids; marked vertices shift by h; the marked leaf
    # is dropped and the new trivalent vertex takes the final id.
    w = h + m - 1

    def shift(u: int) -> int:
        return u if u < marked_leg else u - 1

    adj: list[list[int]] = [list(nbrs) for nbrs in host_comp.adj]
    colors: list[int] = list(host_comp.colors)
    for u in range(m):
        if u == marked_leg:
            continue
        adj.append([w if x == marked_leg else h + shift(x) for x in marked.adj[u]])
        colors.append(marked.colors[u])
    q = h + shift(marked.adj[marked_leg][0])  # stump of the marked leg's edge
    p = host_comp.adj[host_leg][0]            # host leaf's old neighbor
    adj.append([q, host_leg, p])
    colors.append(0)
    adj[host_leg] = [w]
    adj[p] = [w if x == host_leg else x for x in adj[p]]
    return TreeComponent(tuple(tuple(n) for n in adj), tuple(colors))


def graft(marked: TreeComponent, marked_leg: int, host: Diagram,
          host_leg: tuple[int, int], marked_index: Optional[int] = None) -> Diagram:
    """Attach the marked component's distinguished leg just above a host leg.

    ``host_leg`` is (component index, leaf vertex).  When the marked
    component is itself part of ``host``, pass its index as
    ``marked_index``; a graft onto a leg of that same component closes a
    loop and returns the zero diagram.  Otherwise the marked component is
    external and the result's degree is degree(host) + degree(marked).

    Raises DomainError when the two leg colors differ.
    """
    if host.is_zero:
        return host
    ci, v = host_leg
    if not 0 <= ci < len(host.components):
        raise DomainError(f"host has no component {ci}")
    if marked.colors[marked_leg] == 0:
        raise DomainError("marked leg is not a leaf")
    if marked_index is not None and host.components[marked_index] != marked:
        raise DomainError("marked_index does not point at the marked component")
    if marked_index is not None and ci == marked_index:
        return Diagram.zero(host.mode, host.k)
    host_comp = host.components[ci]
    if host_comp.colors[v] == 0:
        raise DomainError("host leg is not a leaf")
    if marked.colors[marked_leg] != host_comp.colors[v]:
        raise DomainError(
            f"leg colors differ: marked {marked.colors[marked_leg]}, "
            f"host {host_comp.colors[v]}")
    joined = join_components(marked, marked_leg, host_comp, v)
    rest = [comp for idx, comp in enumerate(host.components)
            if idx != ci and idx != marked_index]
    return Diagram(tuple(rest) + (joined,), host.mode, host.k)


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


def _rest_desc(rest: tuple[TreeComponent, ...]) -> str:
    return "{" + ",".join(render_component(c) for c in rest) + "}"


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


def rewire(comp: TreeComponent, u: int, v: int,
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
    I(A,B|C,D) - H(A,C|B,D) + X(B,C|A,D) = 0 under the package's
    orientation conventions.  The I term hangs each subtree where it
    already was, so it is ``comp`` itself.
    """
    for u, v in comp.internal_edges():
        iu = comp.adj[u].index(v)
        a, b = comp.adj[u][(iu + 1) % 3], comp.adj[u][(iu + 2) % 3]
        jv = comp.adj[v].index(u)
        c, d = comp.adj[v][(jv + 1) % 3], comp.adj[v][(jv + 2) % 3]
        yield (comp, rewire(comp, u, v, (a, c), (b, d)),
               rewire(comp, u, v, (b, c), (a, d)))


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


def _column_blocks(rows: list[dict[int, int]]) -> dict[int, list[dict[int, int]]]:
    """Group rows into connected blocks of columns (union-find); columns
    never sharing a row can be eliminated independently."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in rows:
        cols = list(row)
        for col in cols:
            parent.setdefault(col, col)
        root = find(cols[0])
        for col in cols[1:]:
            parent[find(col)] = root
    blocks: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        blocks.setdefault(find(next(iter(row))), []).append(row)
    return blocks


def echelon_by_column_blocks(m: SparseMatrix, p: int) -> list[tuple[int, dict[int, int]]]:
    """Echelon pivots over F_p with the rows split into column-connected
    blocks first, each block eliminated on its own and the pivots
    concatenated block by block."""
    pivots = []
    for _, block in sorted(_column_blocks(_rows_mod_p(m, p)).items()):
        pivots.extend(_echelon_block(block, p))
    return pivots


def dimension_ungraded(mode: Mode, space: str, k: int, param: int,
                       primes=DEFAULT_PRIMES,
                       max_elements: int = DEFAULT_MAX_ELEMENTS) -> ResultRecord:
    """The ``dim`` record of a cell from the whole basis and row set,
    with ``elapsed_ms`` 0 and an empty timestamp."""
    basis = build_basis(BasisSpec(mode, k, space, param), max_elements)
    rows, ihx = build_relations(basis)
    raw = (y_link_config_count(k, param, mode) if space == "y"
           else count_link_configs(k, param, mode) + ihx)
    result = rank_multiprime(SparseMatrix.from_rows(rows, len(basis)), primes)
    return ResultRecord(
        mode=mode.value, space=space, k=k, param=param, num_diagrams=len(basis),
        num_relations_raw=raw, num_relations_effective=len(rows), rank=result.rank,
        quotient_dim=result.quotient_dim, primes=result.primes, elapsed_ms=0,
        tool_version=__version__, timestamp="", certified=result.certified)


def witness_ungraded(mode: Mode, space: str, k: int, param: int,
                     prime: int = DEFAULT_PRIMES[0]) -> dict:
    """The ``witness`` document of a cell from the reduced echelon form
    of its whole relation matrix."""
    basis = build_basis(BasisSpec(mode, k, space, param))
    rows, _ = build_relations(basis)
    return {
        "basis": [cd.encoding.hex() for cd in basis.elements],
        "prime": prime,
        "functionals": cokernel_functionals(SparseMatrix.from_rows(rows, len(basis)), prime),
    }


def peel_passes(rows: Sequence[RelationRow]) -> dict[int, int]:
    """Singleton peel of the rows: in pass t, every row with one live
    column marks that column with t, and the marked columns are then
    deleted from every row.  The pass of each marked column; a column
    missing from the result never peels."""
    live = [{c for c, _ in row.entries} for row in rows]
    passes: dict[int, int] = {}
    depth = 0
    while True:
        depth += 1
        peeled = {next(iter(cols)) for cols in live if len(cols) == 1}
        if not peeled:
            return passes
        passes.update(dict.fromkeys(peeled, depth))
        live = [cols - peeled for cols in live if len(cols) > 1]
