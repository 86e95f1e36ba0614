import itertools

import pytest
from hypothesis import given, settings, strategies as st

from strutforge.bases import BasisSpec
from strutforge.diagrams import (
    CanonicalDiagram,
    Diagram,
    Mode,
    TreeComponent,
    canonical_encoding,
    canonicalize,
    canonicalize_component,
    component_encodings,
    decode_component,
    decode_diagram,
    degree,
    diagram,
    diagram_encoding,
    encoding_leaf_colors,
    encoding_trivalent_count,
    strut,
    strut_count,
    y_tree,
)
from strutforge.errors import DomainError, StructuralError
from strutforge.pipeline import build_basis

from brute_force import (
    canonicalize_component_all_leaves,
    colored_trees,
    graft,
    recoloured_encoding,
    relabeled,
    tree_shapes,
)

H = Mode.HOMOTOPY
C = Mode.CONCORDANCE


def four_leaf_tree(a, b, c, d):
    """u(a,b)--v(c,d) with orientations (a, b, v) and (u, c, d)."""
    return TreeComponent(
        ((4,), (4,), (5,), (5,), (0, 1, 5), (4, 2, 3)), (a, b, c, d, 0, 0))


class TestCanonicalizeComponent:
    def test_y_flip_negates(self):
        y = y_tree(1, 2, 3)
        enc, sign = canonicalize_component(y, H)
        enc_f, sign_f = canonicalize_component(y.with_flip(3), H)
        assert enc == enc_f
        assert sign == -sign_f
        assert sign in (1, -1)

    def test_repeated_color_y_is_zero_in_concordance(self):
        assert canonicalize_component(y_tree(1, 1, 2), C) == (b"", 0)

    def test_strut_ends_unordered(self):
        assert canonicalize_component(strut(2, 1), H) == \
            canonicalize_component(strut(1, 2), H)
        assert canonicalize_component(strut(1, 2), H)[1] == 1

    def test_homotopy_kills_repeated_colors(self):
        assert canonicalize_component(strut(1, 1), H) == (b"", 0)
        big = four_leaf_tree(1, 2, 1, 3)
        assert canonicalize_component(big, H) == (b"", 0)

    def test_concordance_keeps_same_color_strut(self):
        enc, sign = canonicalize_component(strut(1, 1), C)
        assert sign == 1 and enc == bytes([1, 1])

    def test_equal_branches_are_zero(self):
        assert canonicalize_component(four_leaf_tree(1, 1, 2, 3), C)[1] == 0
        assert canonicalize_component(four_leaf_tree(1, 2, 1, 2), C)[1] != 0

    def test_cyclic_rotation_is_identity(self):
        y = y_tree(1, 2, 3)
        rotated = TreeComponent(((3,), (3,), (3,), (1, 2, 0)), (1, 2, 3, 0))
        assert canonicalize_component(y, H) == canonicalize_component(rotated, H)

    def test_malformed_trees_rejected(self):
        with pytest.raises(StructuralError):
            TreeComponent(((1,), (0,), (3,)), (1, 2, 3))  # disconnected sizes
        with pytest.raises(StructuralError):
            TreeComponent(((1, 2), (0, 2), (0, 1)), (1, 2, 3))  # cycle, degree 2
        with pytest.raises(StructuralError):
            TreeComponent(((1,), (0,)), (1, 0))  # uncolored leaf
        k4 = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
        struts = ((5,), (4,), (7,), (6,), (9,), (8,))
        for adj, colors, message in (
                (((),), (1,), "a component has at least two vertices"),
                (((1,), (2,), (1,)), (1, 0, 2), "adjacency is not symmetric"),
                (k4, (0,) * 4, "wrong edge count"),
                # ten vertices and nine edges, the edge count of a tree
                (k4 + struts, (0,) * 4 + (1, 2) * 3, "component is not connected")):
            with pytest.raises(StructuralError, match=message):
                TreeComponent(adj, colors)


class TestCanonicalizeDiagram:
    def test_component_order_irrelevant(self):
        d1 = diagram([strut(1, 2), strut(1, 2)], H, 4)
        d2 = diagram([strut(2, 1), strut(1, 2)], H, 4)
        assert canonicalize(d1) == canonicalize(d2)

    def test_zero_component_zeroes_diagram(self):
        d = diagram([four_leaf_tree(3, 3, 1, 2), strut(4, 5)], H, 5)
        assert canonicalize(d) == CanonicalDiagram(b"", 0)

    def test_one_flip_negates_diagram(self):
        d1 = diagram([y_tree(1, 2, 3), strut(4, 5)], H, 5)
        d2 = diagram([y_tree(1, 2, 3).with_flip(3), strut(4, 5)], H, 5)
        c1, c2 = canonicalize(d1), canonicalize(d2)
        assert c1.encoding == c2.encoding
        assert c1.sign == -c2.sign

    def test_zero_diagram_encodes_empty(self):
        assert canonicalize(Diagram.zero(H, 3)) == CanonicalDiagram(b"", 0)
        assert canonicalize(Diagram.zero(H, 3)).is_zero
        assert not canonicalize(diagram([y_tree(1, 2, 3)], H, 3)).is_zero


class TestDegreeAndStruts:
    def test_degrees(self):
        assert degree(diagram([strut(1, 2)], H, 3)) == 1
        assert degree(diagram([y_tree(1, 2, 3)], H, 3)) == 2
        d = diagram([y_tree(1, 2, 3), strut(1, 2), strut(1, 3), strut(2, 3)], H, 3)
        assert degree(d) == 5
        assert degree(Diagram.zero(C, 4)) == 0

    def test_strut_count(self):
        d = diagram([y_tree(1, 2, 3), strut(1, 2), strut(1, 2), strut(1, 4)], H, 4)
        assert strut_count(d, 1, 2) == 2
        assert strut_count(d, 2, 1) == 2
        assert strut_count(d, 1, 4) == 1
        assert strut_count(d, 2, 3) == 0
        assert strut_count(Diagram.zero(C, 4), 1, 2) == 0


class TestGraft:
    def test_strut_onto_strut_makes_y(self):
        marked = strut(3, 2)
        host = diagram([strut(2, 1)], H, 5)
        out = graft(marked, 1, host, (0, 0))
        assert canonicalize(out) == canonicalize(diagram([y_tree(3, 2, 1)], H, 5))

    def test_other_components_untouched(self):
        marked = strut(3, 2)
        host = diagram([strut(2, 4), strut(5, 1)], H, 5)
        out = graft(marked, 1, host, (0, 0))
        assert canonicalize(out) == canonicalize(
            diagram([y_tree(3, 2, 4), strut(5, 1)], H, 5))

    def test_degree_law(self):
        marked = y_tree(1, 2, 3)
        host = diagram([strut(1, 4), strut(2, 5)], H, 5)
        out = graft(marked, 0, host, (0, 0))
        assert degree(out) == degree(host) + marked.degree

    def test_same_component_graft_is_zero(self):
        marked = y_tree(1, 2, 3)
        host = diagram([marked, strut(1, 4)], C, 5)
        out = graft(marked, 0, host, (1, 0), marked_index=0)
        assert not out.is_zero
        looped = graft(marked, 0, host, (0, 1), marked_index=0)
        assert looped.is_zero
        assert canonicalize(looped) == CanonicalDiagram(b"", 0)

    def test_color_mismatch_rejected(self):
        with pytest.raises(DomainError):
            graft(strut(3, 2), 1, diagram([strut(1, 4)], H, 5), (0, 0))

    def test_new_vertex_orientation_convention(self):
        # (marked edge, host leaf, host rest): cyclic (3, 2, 1) here.
        out = graft(strut(3, 2), 1, diagram([strut(2, 1)], H, 5), (0, 0))
        explicit = diagram([y_tree(3, 2, 1)], H, 5)
        flipped = diagram([y_tree(3, 2, 1).with_flip(3)], H, 5)
        assert canonicalize(out).sign == canonicalize(explicit).sign
        assert canonicalize(out).sign == -canonicalize(flipped).sign


class TestDecode:
    def test_component_roundtrip(self):
        for comp in (strut(1, 2), y_tree(5, 4, 3), four_leaf_tree(1, 2, 3, 4)):
            enc, sign = canonicalize_component(comp, H)
            back = decode_component(enc)
            assert canonicalize_component(back, H) == (enc, 1)

    def test_diagram_roundtrip(self):
        d = diagram([y_tree(1, 2, 3), strut(1, 2), strut(4, 5)], H, 5)
        cd = canonicalize(d)
        back = decode_diagram(cd.encoding, H, 5)
        assert canonicalize(back) == CanonicalDiagram(cd.encoding, 1)

    def test_zero_diagram_roundtrip(self):
        assert decode_diagram(b"", H, 3).is_zero

    def test_bad_encoding_rejected(self):
        # canonical_encoding parses as decode_component does
        parsers = (decode_component, lambda enc: canonical_encoding(enc, H),
                   lambda enc: canonical_encoding(enc, C))
        for enc, message in ((b"", "component encoding too short"),
                             (b"\x01", "component encoding too short"),
                             (b"\x01\x7e\x02", "truncated component encoding"),
                             (bytes([1, 0x7E, 0x7E, 2, 3]), "truncated component encoding"),
                             (bytes([1, 0x7E, 2, 0x90]), "bad byte 0x90 in component encoding"),
                             (bytes([1, 0x7E, 0, 2]), "bad byte 0x0 in component encoding"),
                             (bytes([1, 0x7E, 2, 3, 0x90]), "trailing bytes in component encoding"),
                             (bytes([0x7E, 1, 2]), "must start with a color byte"),
                             (bytes([1, 2, 3]), "trailing bytes in component encoding")):
            for parse in parsers:
                with pytest.raises(StructuralError, match=message):
                    parse(enc)

    def test_vertices_are_numbered_by_position(self):
        comp = decode_component(bytes([2, 0x7E, 0x7E, 1, 3, 4]))
        assert comp.adj == ((1,), (0, 2, 5), (1, 3, 4), (2,), (2,), (1,))
        assert comp.colors == (2, 0, 0, 1, 3, 4)


class TestEncodingHelpers:
    def test_trivalent_count(self):
        enc = canonicalize(diagram([y_tree(1, 2, 3), strut(1, 2)], H, 3)).encoding
        assert encoding_trivalent_count(enc) == 1

    def test_leaf_colors(self):
        enc = canonicalize(diagram([y_tree(1, 2, 3), strut(1, 2)], H, 3)).encoding
        assert encoding_leaf_colors(enc) == (1, 1, 2, 2, 3)


# Random colored trees for property tests: pick a shape grown by leaf
# insertion, then color the leaves.
@st.composite
def random_component(draw, max_leaves=5, k=5, distinct=False):
    n = draw(st.integers(2, max_leaves))
    shapes = tree_shapes(n)
    shape = shapes[draw(st.integers(0, len(shapes) - 1))]
    if distinct:
        colors = draw(st.permutations(range(1, k + 1))) [:n]
        if len(colors) < n:
            colors = list(range(1, n + 1))
    else:
        colors = [draw(st.integers(1, k)) for _ in range(n)]
    adj = tuple(tuple(shape[v]) for v in range(len(shape)))
    cols = tuple(colors) + (0,) * (len(shape) - n)
    return TreeComponent(adj, cols)


@settings(max_examples=60, deadline=None)
@given(random_component(), st.randoms(use_true_random=False))
def test_canonicalization_relabel_invariant(comp, rng):
    n = len(comp.adj)
    perm = list(range(n))
    rng.shuffle(perm)
    assert canonicalize_component(relabeled(comp, perm), C) == \
        canonicalize_component(comp, C)


@settings(max_examples=60, deadline=None)
@given(random_component(), st.data())
def test_flip_multiplies_sign(comp, data):
    enc, sign = canonicalize_component(comp, C)
    trivalent = [v for v in range(len(comp.adj)) if len(comp.adj[v]) == 3]
    if not trivalent:
        return
    v = data.draw(st.sampled_from(trivalent))
    enc_f, sign_f = canonicalize_component(comp.with_flip(v), C)
    if sign == 0:
        assert sign_f == 0
    else:
        assert enc_f == enc
        assert sign_f == -sign


@settings(max_examples=60, deadline=None)
@given(random_component())
def test_decode_is_canonical_fixed_point(comp):
    enc, sign = canonicalize_component(comp, C)
    if sign == 0:
        return
    assert canonicalize_component(decode_component(enc), C) == (enc, 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(random_component(max_leaves=4, k=4), min_size=1, max_size=3),
       st.randoms(use_true_random=False))
def test_diagram_canonicalization_order_invariant(comps, rng):
    d1 = diagram(comps, C, 4)
    shuffled = list(comps)
    rng.shuffle(shuffled)
    d2 = diagram(shuffled, C, 4)
    assert canonicalize(d1) == canonicalize(d2)


@settings(max_examples=40, deadline=None)
@given(st.lists(random_component(max_leaves=4, k=4), min_size=1, max_size=2),
       st.lists(random_component(max_leaves=4, k=4), min_size=1, max_size=2))
def test_degree_additive_over_disjoint_union(a, b):
    da = diagram(a, C, 4)
    db = diagram(b, C, 4)
    dab = diagram(list(a) + list(b), C, 4)
    assert degree(dab) == degree(da) + degree(db)


# Rooting at the least-color leaves only, against the all-leaves oracle.
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([H, C]), random_component(max_leaves=6, k=5),
       st.randoms(use_true_random=False), st.data())
def test_least_color_rooting_matches_the_all_leaves_oracle(mode, comp, rng, data):
    perm = list(range(len(comp.adj)))
    rng.shuffle(perm)
    comp = relabeled(comp, perm)
    for v in range(len(comp.adj)):
        if len(comp.adj[v]) == 3 and data.draw(st.booleans()):
            comp = comp.with_flip(v)
    assert canonicalize_component(comp, mode) == canonicalize_component_all_leaves(comp, mode)


@pytest.mark.parametrize("mode,k", [(H, 5), (C, 3)])
def test_least_color_rooting_on_every_small_tree(mode, k):
    zeros = 0
    for deg in range(1, 5):
        for comp in colored_trees(k, deg, mode):
            expected = canonicalize_component_all_leaves(comp, mode)
            assert canonicalize_component(comp, mode) == expected
            zeros += expected[1] == 0
    # only concordance repeats a color, so only there can two branches be equal
    assert zeros > 0 if mode is C else zeros == 0


def written_from(comp, leaf):
    """``comp`` written from ``leaf``, each node's children in cyclic
    order after its parent and left unsorted, as a splice writes them."""
    def expr(v, parent):
        nbrs = comp.adj[v]
        if len(nbrs) == 1:
            return bytes([comp.colors[v]])
        i = nbrs.index(parent)
        return bytes([0x7E]) + expr(nbrs[(i + 1) % 3], v) + expr(nbrs[(i + 2) % 3], v)
    return bytes([comp.colors[leaf]]) + expr(comp.adj[leaf][0], leaf)


# A component written from any leaf, with any flips, against the
# all-leaves oracle; decoding it and writing it from vertex 0 gives it back.
@settings(max_examples=300, deadline=None)
@given(st.sampled_from([H, C]),
       st.one_of(random_component(max_leaves=7, k=4),
                 random_component(max_leaves=7, k=7, distinct=True)), st.data())
def test_canonical_encoding_from_any_leaf_matches_the_oracle(mode, comp, data):
    for v in range(len(comp.adj)):
        if len(comp.adj[v]) == 3 and data.draw(st.booleans()):
            comp = comp.with_flip(v)
    leaf = data.draw(st.sampled_from([v for v, _ in comp.leaves()]))
    enc = written_from(comp, leaf)
    assert written_from(decode_component(enc), 0) == enc
    expected = canonicalize_component_all_leaves(comp, mode)
    assert canonicalize_component_all_leaves(decode_component(enc), mode) == expected
    assert canonical_encoding(enc, mode) == expected


# Concordance colourings on 3 colours repeat colours, which homotopy mode
# kills and concordance mode keeps, zero exactly when a symmetry reverses
# the tree; homotopy colourings on 5 colours are all distinct and nonzero.
@pytest.mark.parametrize("mode,k,colouring", [(H, 3, C), (C, 3, C), (H, 5, H)])
def test_canonical_encoding_on_every_small_tree_from_every_leaf(mode, k, colouring):
    zeros = 0
    for deg in range(1, 5):
        for comp in colored_trees(k, deg, colouring):
            expected = canonicalize_component_all_leaves(comp, mode)
            zeros += expected[1] == 0
            for leaf, _ in comp.leaves():
                assert canonical_encoding(written_from(comp, leaf), mode) == expected
    assert zeros > 0 if colouring is C else zeros == 0


@pytest.mark.parametrize("mode,k,d", [(H, 4, 3), (H, 4, 4), (C, 3, 4), (C, 2, 5)])
def test_recoloured_encoding_is_decode_and_canonicalize(mode, k, d):
    encodings = [cd.encoding for cd in build_basis(BasisSpec(mode, k, "full", d)).elements]
    for perm in itertools.permutations(range(1, k + 1)):
        table = bytes([0, *perm, *range(k + 1, 256)])
        for enc in encodings:
            recolored = [TreeComponent(comp.adj, tuple(perm[c - 1] if c else 0
                                                       for c in comp.colors))
                         for comp in map(decode_component, component_encodings(enc))]
            assert recoloured_encoding(enc, table, mode) == diagram_encoding(
                canonicalize_component_all_leaves(comp, mode)[0] for comp in recolored)
