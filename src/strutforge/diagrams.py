"""Colored unitrivalent forest diagrams and their signed canonical forms.

A component is a tree whose vertices have degree 1 (leaves, carrying a
color) or degree 3 (trivalent, carrying a cyclic orientation of the three
incident edges).  Reversing the orientation at a trivalent vertex negates
the diagram (antisymmetry), so equality of diagrams is only defined up to
sign; canonicalization returns an orientation-independent byte encoding
together with that sign.  A sign of 0 means the diagram is its own
negative, i.e. the zero vector of the diagram space.

One parse (``_parse``) and one least-colour re-rooting
(``_least_rooting``) serve decoding and both canonicalizers, of a
``TreeComponent`` and of an encoding written from any leaf.

Both relations' terms are spliced on canonical encodings here and
canonicalized as they stand, in bounded caches that a whole process
shares: a marked tree's grafts onto a host component (``graft_terms``)
and the rewirings of a component's internal edges (``ihx_terms``).
``relations`` and the Y peel of ``peel`` read them, and a term's column
(``term_column``), from here, so only this module and ``bases``, whose
rooted-expression generator writes the canonical form, name the node
byte.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from typing import Iterable, Optional, Sequence

from .errors import DomainError, StructuralError, Value, _set
from .records import Mode

# Colors fit in one byte well below the structural marker bytes.
MAX_COLORS = 62
# Reserved pseudo-color for a distinguished ("marked") leaf.
MARKED_COLOR = 63
# Byte introducing an internal node in encodings; above any color byte.
_NODE = 0x7E
_NODE_BYTE = bytes([_NODE])
# Separator between component encodings inside a diagram encoding.
_SEP = 0xFF
_SEP_BYTE = bytes([_SEP])


def check_color(c: int) -> int:
    if not isinstance(c, int) or not 1 <= c <= MARKED_COLOR:
        raise DomainError(f"color must be an integer in 1..{MARKED_COLOR}, got {c!r}")
    return c


def check_num_colors(k: int) -> int:
    if not isinstance(k, int) or not 1 <= k <= MAX_COLORS:
        raise DomainError(f"color count k must be in 1..{MAX_COLORS}, got {k!r}")
    return k


class TreeComponent(Value):
    """One tree of a diagram.

    ``adj[v]`` lists the neighbors of vertex ``v``; for a trivalent vertex
    the tuple order *is* the cyclic orientation.  ``colors[v]`` is the leaf
    color, or 0 for trivalent vertices.  Both are stored as tuples.
    """

    __slots__ = ("adj", "colors")
    adj: tuple[tuple[int, ...], ...]
    colors: tuple[int, ...]

    def __init__(self, adj: Sequence[Sequence[int]], colors: Sequence[int]) -> None:
        _set(self, "adj", tuple(map(tuple, adj)))
        _set(self, "colors", tuple(colors))
        n = len(self.adj)
        if n != len(self.colors):
            raise StructuralError("adjacency and color tables differ in length")
        if n < 2:
            raise StructuralError("a component has at least two vertices")
        edge_count = 0
        for v, nbrs in enumerate(self.adj):
            if len(nbrs) not in (1, 3):
                raise StructuralError(f"vertex {v} has degree {len(nbrs)}")
            if (self.colors[v] > 0) != (len(nbrs) == 1):
                raise StructuralError(f"vertex {v}: exactly the leaves are colored")
            if self.colors[v] > 0:
                check_color(self.colors[v])
            seen = set()
            for u in nbrs:
                if u == v or not 0 <= u < n or u in seen:
                    raise StructuralError(f"vertex {v} has a malformed neighbor list")
                seen.add(u)
                if v not in self.adj[u]:
                    raise StructuralError("adjacency is not symmetric")
            edge_count += len(nbrs)
        if edge_count != 2 * (n - 1):
            raise StructuralError("component is not a tree (wrong edge count)")
        # Connectivity: walk from vertex 0.
        stack, seen = [0], {0}
        while stack:
            for u in self.adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != n:
            raise StructuralError("component is not connected")

    def leaves(self) -> tuple[tuple[int, int], ...]:
        """(vertex id, color) for every leaf, in vertex order."""
        return tuple((v, c) for v, c in enumerate(self.colors) if c > 0)

    def leaf_colors(self) -> tuple[int, ...]:
        return tuple(sorted(c for c in self.colors if c > 0))

    @property
    def num_leaves(self) -> int:
        return sum(1 for c in self.colors if c > 0)

    @property
    def degree(self) -> int:
        return self.num_leaves - 1

    @property
    def is_strut(self) -> bool:
        return len(self.adj) == 2

    def strut_ends(self) -> tuple[int, int]:
        if not self.is_strut:
            raise DomainError("not a strut")
        a, b = self.colors
        return (a, b) if a <= b else (b, a)

    def internal_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges joining two trivalent vertices, as (u, v) with u < v."""
        out = []
        for v, nbrs in enumerate(self.adj):
            if len(nbrs) == 3:
                for u in nbrs:
                    if u > v and len(self.adj[u]) == 3:
                        out.append((v, u))
        return tuple(out)

    def with_flip(self, v: int) -> "TreeComponent":
        """The same tree with the cyclic orientation at ``v`` reversed."""
        if len(self.adj[v]) != 3:
            raise DomainError(f"vertex {v} is not trivalent")
        new_adj = list(self.adj)
        new_adj[v] = tuple(reversed(self.adj[v]))
        return TreeComponent(new_adj, self.colors)


def strut(a: int, b: int) -> TreeComponent:
    """A single edge with ends colored ``a`` and ``b``."""
    check_color(a)
    check_color(b)
    return TreeComponent(((1,), (0,)), (a, b))


def y_tree(a: int, b: int, c: int) -> TreeComponent:
    """Three leaves on one trivalent vertex, cyclic orientation (a, b, c)."""
    for col in (a, b, c):
        check_color(col)
    return TreeComponent(((3,), (3,), (3,), (0, 1, 2)), (a, b, c, 0))


class Diagram(Value):
    """A multiset of tree components with a mode tag and a color bound.

    The zero diagram (the zero vector of the space) is represented
    explicitly by ``is_zero`` with an empty component tuple.  The
    components are stored as a tuple.
    """

    __slots__ = ("components", "mode", "k", "is_zero")
    components: tuple[TreeComponent, ...]
    mode: Mode
    k: int
    is_zero: bool

    def __init__(self, components: Iterable[TreeComponent], mode: Mode, k: int,
                 is_zero: bool = False) -> None:
        _set(self, "components", tuple(components))
        _set(self, "mode", mode)
        _set(self, "k", k)
        _set(self, "is_zero", is_zero)
        check_num_colors(self.k)
        if self.is_zero:
            if self.components:
                raise StructuralError("the zero diagram carries no components")
            return
        for comp in self.components:
            for _, color in comp.leaves():
                if color > self.k:
                    raise DomainError(f"leaf color {color} exceeds k={self.k}")

    @classmethod
    def zero(cls, mode: Mode, k: int) -> "Diagram":
        return cls((), mode, k, is_zero=True)


def diagram(components: Iterable[TreeComponent], mode: Mode, k: int) -> Diagram:
    return Diagram(components, mode, k)


@total_ordering
class CanonicalDiagram(Value):
    """Isomorphism-invariant encoding plus the antisymmetry sign.

    Encodings compare as raw bytes, giving the strict total order used for
    basis indexing; values order by (encoding, sign).  ``sign`` is 0
    exactly for diagrams equal to their own negative (or killed by the
    homotopy repeated-color rule); such diagrams encode as the empty byte
    string.
    """

    __slots__ = ("encoding", "sign")
    encoding: bytes
    sign: int

    def __init__(self, encoding: bytes, sign: int) -> None:
        _set(self, "encoding", encoding)
        _set(self, "sign", sign)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not CanonicalDiagram:
            return NotImplemented
        return (self.encoding, self.sign) < (other.encoding, other.sign)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0


ZERO_CANONICAL = CanonicalDiagram(b"", 0)


def _encode_rooted(adj: Sequence[Sequence[int]], colors: Sequence[int],
                   v: int, parent: int) -> tuple[bytes, int]:
    """Encoding and swap sign of the subtree at ``v`` seen from ``parent``,
    in the tree with neighbour lists ``adj`` and leaf colours ``colors``.

    Children of a trivalent vertex are taken in cyclic order after the
    parent edge and written in sorted order; each swap against the cyclic
    order costs a -1.  Equal child encodings mean the subtree equals its
    own negative, reported as sign 0.
    """
    nbrs = adj[v]
    if len(nbrs) == 1:
        return bytes([colors[v]]), 1
    i = nbrs.index(parent)
    a, b = nbrs[(i + 1) % 3], nbrs[(i + 2) % 3]
    enc_a, sign_a = _encode_rooted(adj, colors, a, v)
    enc_b, sign_b = _encode_rooted(adj, colors, b, v)
    if enc_a < enc_b:
        return _NODE_BYTE + enc_a + enc_b, sign_a * sign_b
    if enc_a > enc_b:
        return _NODE_BYTE + enc_b + enc_a, -sign_a * sign_b
    return _NODE_BYTE + enc_a + enc_b, 0


def _least_rooting(adj: Sequence[Sequence[int]], colors: Sequence[int],
                   mode: Mode) -> tuple[bytes, int]:
    """Canonical (encoding, sign) of the tree with neighbour lists ``adj``
    and colours ``colors`` (0 on a trivalent vertex) under antisymmetry.

    Roots the tree at each leaf of the least color, encodes each rooting,
    and keeps the lexicographically least: an encoding starts with its
    root's color, so no other rooting can reach the minimum.  A rooting
    with a sign-0 subtree, or rootings that reach the minimum with both
    signs, witness an orientation-reversing self-isomorphism, which maps
    least-color leaves to least-color leaves: the component is zero.  In
    homotopy mode a repeated leaf color is zero outright.
    """
    cols = [c for c in colors if c > 0]
    if mode is Mode.HOMOTOPY and len(set(cols)) != len(cols):
        return b"", 0
    least = min(cols)
    best: Optional[bytes] = None
    best_signs: set[int] = set()
    for v, color in enumerate(colors):
        if color != least:
            continue
        sub_enc, sub_sign = _encode_rooted(adj, colors, adj[v][0], v)
        if sub_sign == 0:
            return b"", 0
        if best is None or sub_enc < best:
            best = sub_enc
            best_signs = {sub_sign}
        elif sub_enc == best:
            best_signs.add(sub_sign)
    assert best is not None
    if len(best_signs) == 2:
        return b"", 0
    return bytes([least]) + best, best_signs.pop()


# Bounded small: the engine hands it each listed tree once
# (``bases.tree_encodings``, itself cached) and ``expand_along``'s
# diagrams; spliced encodings go to ``canonical_encoding``.  It is kept
# for its ``cache_info()``, which ``perfbench/traced_op.py`` reads.
@lru_cache(maxsize=1 << 12)
def canonicalize_component(comp: TreeComponent, mode: Mode) -> tuple[bytes, int]:
    """Canonical (encoding, sign) of one component under antisymmetry
    (``_least_rooting``)."""
    return _least_rooting(comp.adj, comp.colors, mode)


def canonical_encoding(enc: bytes, mode: Mode) -> tuple[bytes, int]:
    """``canonicalize_component(decode_component(enc), mode)`` for a
    component written as ``enc`` from any leaf, each node's children in
    either order, with no ``TreeComponent`` built: how splices are
    canonicalized."""
    return _least_rooting(_parse(enc), enc.replace(_NODE_BYTE, b"\0"), mode)


def strut_encoding(i: int, j: int) -> bytes:
    """Canonical encoding of ``strut(i, j)``: the two end colors in
    increasing order.  Its sign is +1 in both modes, except that homotopy
    mode makes ``i == j`` zero."""
    return bytes((i, j)) if i <= j else bytes((j, i))


def canonicalize(d: Diagram) -> CanonicalDiagram:
    """Canonical form of a whole diagram: sorted component encodings
    joined with a separator byte, sign the product of component signs."""
    if d.is_zero:
        return ZERO_CANONICAL
    encodings = []
    sign = 1
    for comp in d.components:
        enc, s = canonicalize_component(comp, d.mode)
        if s == 0:
            return ZERO_CANONICAL
        sign *= s
        encodings.append(enc)
    return CanonicalDiagram(diagram_encoding(encodings), sign)


def diagram_encoding(parts: Iterable[bytes]) -> bytes:
    """Diagram encoding of the forest with these canonical component
    encodings: the encodings sorted and joined with the separator byte."""
    return _SEP_BYTE.join(sorted(parts))


def component_encodings(enc: bytes) -> list[bytes]:
    """The canonical component encodings of a nonzero diagram encoding,
    in sorted order."""
    return enc.split(_SEP_BYTE)


def degree(d: Diagram) -> int:
    """Half the vertex count: the sum of (leaf count - 1) per component."""
    if d.is_zero:
        return 0
    return sum(comp.degree for comp in d.components)


def strut_count(d: Diagram, i: int, j: int) -> int:
    """Multiplicity of the strut with ends colored {i, j} among components."""
    check_color(i)
    check_color(j)
    want = (i, j) if i <= j else (j, i)
    if d.is_zero:
        return 0
    return sum(1 for c in d.components if c.is_strut and c.strut_ends() == want)


def _parse(enc: bytes) -> list[list[int]]:
    """Neighbour lists of the component written as ``enc``, one vertex
    per byte: vertex i is the leaf or node at position i, and its list
    holds its parent, then a node's two children.  The root leaf's only
    neighbour is vertex 1.  The vertices come in pre-order, the order
    in which ``_encode_rooted`` writes them."""
    if len(enc) < 2:
        raise StructuralError("component encoding too short")
    if not 1 <= enc[0] <= MARKED_COLOR:
        raise StructuralError("component encoding must start with a color byte")
    adj: list[list[int]] = [[]]
    open_ = [0]  # vertices still missing a child, innermost last
    for pos in range(1, len(enc)):
        if not open_:
            raise StructuralError("trailing bytes in component encoding")
        byte = enc[pos]
        parent = open_[-1]
        nbrs = adj[parent]
        nbrs.append(pos)
        if len(nbrs) == 3 or not parent:
            open_.pop()
        if byte == _NODE:
            open_.append(pos)
        elif not 1 <= byte <= MARKED_COLOR:
            raise StructuralError(f"bad byte {byte:#x} in component encoding")
        adj.append([parent])
    if open_:
        raise StructuralError("truncated component encoding")
    return adj


def decode_component(enc: bytes) -> TreeComponent:
    """Rebuild the concrete sign +1 representative from its encoding,
    numbering its vertices by position (``_parse``)."""
    adj = _parse(enc)
    # a parsed encoding is a tree by construction: skip the checks
    comp = object.__new__(TreeComponent)
    _set(comp, "adj", tuple(map(tuple, adj)))
    _set(comp, "colors", tuple(enc.replace(_NODE_BYTE, b"\0")))
    return comp


def decode_diagram(enc: bytes, mode: Mode, k: int) -> Diagram:
    """Rebuild a concrete diagram from a diagram encoding."""
    if enc == b"":
        return Diagram.zero(mode, k)
    comps = tuple(decode_component(part) for part in component_encodings(enc))
    return Diagram(comps, mode, k)


def encoding_trivalent_count(enc: bytes) -> int:
    """Trivalent vertices of the encoded diagram (one marker byte each)."""
    return enc.count(_NODE)


def encoding_leaf_colors(enc: bytes) -> tuple[int, ...]:
    """Sorted leaf color multiset of the encoded diagram."""
    return tuple(sorted(b for b in enc if 1 <= b <= MARKED_COLOR))


def encoding_colors(enc: bytes) -> set[int]:
    """Distinct leaf colors of the encoded component."""
    return set(enc) - {_NODE}


def term_column(index: dict[bytes, int], components: list[bytes]) -> int:
    """Basis column of the forest with these canonical component encodings."""
    try:
        return index[diagram_encoding(components)]
    except KeyError:
        raise DomainError(
            "relation term falls outside the basis; the basis does not "
            "match this generator's space") from None


@lru_cache(maxsize=1 << 16)
def graft_terms(marked: bytes, host: bytes,
                mode: Mode) -> tuple[tuple[bytes, int], ...]:
    """(encoding, summed sign) of the canonical components made by grafting
    the leg of the marked tree ``marked`` above each same-colored leaf of
    the host component with canonical encoding ``host``, zeros dropped.
    The key leaves out k: a graft does not depend on it.

    ``host`` has a leaf of the leg's color (``relations._rest_hosts``).
    Each graft is spliced on the encodings and canonicalized as it
    stands (``canonical_encoding``).  With ``marked`` = c + E, the
    c-leaf byte at position i > 0 of ``host`` becomes a node whose
    children are E and that leaf, NODE + E + c; the new vertex is
    oriented (host side, E, leaf).  A c-coloured root leaf stays the
    root, and its node takes the rest of the host and then E:
    c + NODE + host[1:] + E.
    """
    color, expr = marked[:1], marked[1:]
    terms: dict[bytes, int] = {}
    for i, byte in enumerate(host):
        if byte == marked[0]:
            spliced = (color + _NODE_BYTE + host[1:] + expr if i == 0
                       else host[:i] + _NODE_BYTE + expr + color + host[i + 1:])
            enc, sign = canonical_encoding(spliced, mode)
            if sign:
                terms[enc] = terms.get(enc, 0) + sign
    return tuple((enc, sign) for enc, sign in terms.items() if sign)


@lru_cache(maxsize=1 << 14)
def ihx_terms(enc: bytes, mode: Mode) -> tuple[tuple[tuple[bytes, int], ...], ...]:
    """Canonical (encoding, sign) of the I, H and X terms of each internal
    edge of the component with canonical encoding ``enc``, in the order
    ``TreeComponent.internal_edges`` lists them on its decoding.

    An internal edge joins a node P = NODE + S1 + S2 of the encoding to
    a child Q = NODE + T1 + T2 that is a node too, taken by the position
    of P and then S1 before S2.  The I term is the
    component itself, ``(enc, 1)``.  H and X splice a rewired
    subexpression in place of P's and are canonicalized as they stand
    (``canonical_encoding``): for
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
            out.append(((enc, 1), canonical_encoding(h, mode), canonical_encoding(x, mode)))
    return tuple(out)


def render_component(comp: TreeComponent) -> str:
    """Short human-readable form, e.g. '1-2' for a strut, 'Y(1,2,3)'."""
    return render_encoding(*canonicalize_component(comp, Mode.CONCORDANCE))


def render_encoding(enc: bytes, sign: int = 1) -> str:
    """``render_component`` of the component with canonical encoding
    ``enc`` and sign ``sign``, read off the encoding: '0' for sign 0."""
    if not sign:
        return "0"
    if len(enc) == 2:
        return f"{enc[0]}-{enc[1]}"
    if len(enc) == 4 and enc[1] == _NODE:
        return f"Y({enc[0]},{enc[2]},{enc[3]})"

    def expr(pos: int) -> tuple[str, int]:
        if enc[pos] == _NODE:
            a, pos = expr(pos + 1)
            b, pos = expr(pos)
            return f"({a} {b})", pos
        return str(enc[pos]), pos + 1

    body, _ = expr(1)
    return f"{enc[0]}:{body}"
